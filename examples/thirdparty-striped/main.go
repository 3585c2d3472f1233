// Third-party and striped transfer over real sockets: the two GridFTP
// features beyond plain parallel streams — a client orchestrating a
// server-to-server copy without the data passing through it, and striped
// retrieval from multiple data movers (the paper's future work #1).
//
//	go run ./examples/thirdparty-striped
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/gsi"
)

func main() {
	if err := run(os.Stdout, 16<<20); err != nil {
		log.Fatal(err)
	}
}

// run mirrors a size-byte file between two GSI-protected servers by
// third-party transfer, downloads the mirror over four stripes, and
// checks both copies byte for byte.
func run(out io.Writer, size int) error {
	// One virtual organization: a CA everyone trusts.
	ca, err := gsi.NewCA([]byte("demo-vo-secret"))
	if err != nil {
		return err
	}
	mkAuth := func(subject string, seed int64) (*gsi.Authenticator, error) {
		cred, err := ca.Issue(subject)
		if err != nil {
			return nil, err
		}
		return gsi.NewAuthenticator(ca, cred, seed)
	}

	// Two storage sites, both requiring GSI, four stripes each.
	startServer := func(subject string, seed int64) (*gridftp.Server, string, *gridftp.MemStore, error) {
		auth, err := mkAuth(subject, seed)
		if err != nil {
			return nil, "", nil, err
		}
		store := gridftp.NewMemStore()
		srv, err := gridftp.NewServer(gridftp.ServerConfig{Store: store, GSI: auth, RequireGSI: true, Stripes: 4})
		if err != nil {
			return nil, "", nil, err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		return srv, addr, store, err
	}
	srcSrv, srcAddr, srcStore, err := startServer("/O=demo/CN=storage.thu", 1)
	if err != nil {
		return err
	}
	defer srcSrv.Close()
	dstSrv, dstAddr, dstStore, err := startServer("/O=demo/CN=storage.hit", 2)
	if err != nil {
		return err
	}
	defer dstSrv.Close()
	fmt.Fprintf(out, "source server %s, destination server %s\n", srcAddr, dstAddr)

	payload := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(payload)
	if err := srcStore.Put("/archive/run-2005.dat", payload); err != nil {
		return err
	}

	clientAuth, err := mkAuth("/O=demo/CN=ctyang", 9)
	if err != nil {
		return err
	}
	connect := func(addr string, parallelism int) (*gridftp.Client, error) {
		c, err := gridftp.Dial(addr, gridftp.ClientConfig{Parallelism: parallelism})
		if err != nil {
			return nil, err
		}
		peer, err := c.AuthGSI(clientAuth)
		if err == nil {
			fmt.Fprintf(out, "authenticated to %s\n", peer)
			err = c.Setup()
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}

	// --- Third-party transfer: THU -> HIT, 4 parallel channels, the data
	// never touches this process. ---
	src, err := connect(srcAddr, 4)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := connect(dstAddr, 4)
	if err != nil {
		return err
	}
	defer dst.Close()
	start := time.Now()
	if err := gridftp.ThirdParty(src, "/archive/run-2005.dat", dst, "/mirror/run-2005.dat"); err != nil {
		return err
	}
	fmt.Fprintf(out, "third-party copy of %d MiB in %v\n", size>>20, time.Since(start).Round(time.Millisecond))
	mirrored, err := dstStore.Get("/mirror/run-2005.dat")
	if err != nil {
		return err
	}
	if !bytes.Equal(mirrored, payload) {
		return errors.New("mirror verification failed")
	}
	fmt.Fprintln(out, "mirror verified byte-for-byte")
	if err := src.Quit(); err != nil {
		return err
	}

	// --- Striped retrieval from the destination's four data movers. ---
	striped, err := connect(dstAddr, 2)
	if err != nil {
		return err
	}
	defer striped.Quit()
	if !striped.ModeE() {
		if err := striped.UseModeE(); err != nil {
			return err
		}
	}
	start = time.Now()
	got, err := striped.GetStriped("/mirror/run-2005.dat")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return errors.New("striped download corrupted")
	}
	fmt.Fprintf(out, "striped download (4 stripes) of %d MiB in %v\n",
		size>>20, time.Since(start).Round(time.Millisecond))
	return dst.Quit()
}
