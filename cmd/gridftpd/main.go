// Command gridftpd runs the GridFTP server over real TCP: the in-memory
// grid storage node of this repository. It can preload files from disk or
// synthesize random payloads, and optionally requires GSI authentication.
//
// Example:
//
//	gridftpd -addr 127.0.0.1:2811 -synth /data/file-a=64MiB
//	gridftpd -addr 127.0.0.1:2811 -load ./pub -gsi-ca secret -subject /CN=gridftpd
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/gsi"
)

type synthList []string

func (s *synthList) String() string { return strings.Join(*s, ",") }
func (s *synthList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func parseSize(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "GIB"):
		mult, upper = 1<<30, upper[:len(upper)-3]
	case strings.HasSuffix(upper, "MIB"):
		mult, upper = 1<<20, upper[:len(upper)-3]
	case strings.HasSuffix(upper, "KIB"):
		mult, upper = 1<<10, upper[:len(upper)-3]
	case strings.HasSuffix(upper, "MB"):
		mult, upper = 1_000_000, upper[:len(upper)-2]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:2811", "listen address")
		load       = flag.String("load", "", "directory whose files are preloaded into the in-memory store")
		serveDir   = flag.String("serve-dir", "", "serve this directory directly from disk (production mode)")
		caKey      = flag.String("gsi-ca", "", "virtual-organization CA key enabling AUTH GSI")
		subject    = flag.String("subject", "/CN=gridftpd", "server GSI subject")
		requireGSI = flag.Bool("require-gsi", false, "refuse USER/PASS logins")
		stripes    = flag.Int("stripes", 4, "SPAS stripe count")
		seed       = flag.Int64("seed", 1, "seed for synthesized file content")
		xferlog    = flag.String("xferlog", "", "append wu-ftpd style transfer log lines to this file")
		synth      synthList
	)
	flag.Var(&synth, "synth", "synthesize a file, e.g. /data/file-a=256MB (repeatable)")
	flag.Parse()

	var store gridftp.Store = gridftp.NewMemStore()
	if *serveDir != "" {
		ds, err := gridftp.NewDiskStore(*serveDir)
		if err != nil {
			log.Fatalf("gridftpd: %v", err)
		}
		store = ds
		log.Printf("serving %s from disk", ds.Root())
	}
	mem, _ := store.(*gridftp.MemStore)
	preloaded := 0
	rng := rand.New(rand.NewSource(*seed))
	for _, spec := range synth {
		path, sizeStr, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("gridftpd: bad -synth %q, want path=size", spec)
		}
		size, err := parseSize(sizeStr)
		if err != nil {
			log.Fatalf("gridftpd: %v", err)
		}
		if mem == nil {
			log.Fatal("gridftpd: -synth requires the in-memory store (omit -serve-dir)")
		}
		buf := make([]byte, size)
		rng.Read(buf)
		if err := mem.Put(path, buf); err != nil {
			log.Fatalf("gridftpd: %v", err)
		}
		preloaded++
		log.Printf("synthesized %s (%d bytes)", path, size)
	}
	if *load != "" {
		if mem == nil {
			log.Fatal("gridftpd: -load requires the in-memory store (omit -serve-dir)")
		}
		err := filepath.Walk(*load, func(p string, fi os.FileInfo, err error) error {
			if err != nil || fi.IsDir() {
				return err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(*load, p)
			if err != nil {
				return err
			}
			vpath := "/" + filepath.ToSlash(rel)
			if err := mem.Put(vpath, data); err != nil {
				return err
			}
			preloaded++
			log.Printf("loaded %s (%d bytes)", vpath, len(data))
			return nil
		})
		if err != nil {
			log.Fatalf("gridftpd: loading %s: %v", *load, err)
		}
	}

	cfg := gridftp.ServerConfig{Store: store, Stripes: *stripes, RequireGSI: *requireGSI}
	if *xferlog != "" {
		lf, err := os.OpenFile(*xferlog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("gridftpd: opening xferlog: %v", err)
		}
		defer lf.Close()
		cfg.TransferLog = lf
	}
	if *caKey != "" {
		ca, err := gsi.NewCA([]byte(*caKey))
		if err != nil {
			log.Fatalf("gridftpd: %v", err)
		}
		cred, err := ca.Issue(*subject)
		if err != nil {
			log.Fatalf("gridftpd: %v", err)
		}
		cfg.GSI, err = gsi.NewAuthenticator(ca, cred, *seed)
		if err != nil {
			log.Fatalf("gridftpd: %v", err)
		}
	} else if *requireGSI {
		log.Fatal("gridftpd: -require-gsi needs -gsi-ca")
	}

	srv, err := gridftp.NewServer(cfg)
	if err != nil {
		log.Fatalf("gridftpd: %v", err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("gridftpd: %v", err)
	}
	log.Printf("gridftpd listening on %s (%d files preloaded, stripes=%d, gsi=%v)",
		bound, preloaded, *stripes, cfg.GSI != nil)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("gridftpd: close: %v", err)
	}
}
