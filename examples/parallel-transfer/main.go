// Parallel transfer over real sockets: this example reproduces the spirit
// of the paper's §4.2 with the repository's actual GridFTP implementation.
// It starts a GridFTP server on the loopback interface, uploads a payload,
// and times downloads in stream mode and MODE E with 1, 2, 4 and 8
// parallel TCP data channels.
//
//	go run ./examples/parallel-transfer
//
// Loopback has no loss or delay, so unlike the paper's WAN the parallel
// runs will not show large speedups — the point here is exercising the
// real wire protocol: MODE E framing, OPTS negotiation and multiple
// concurrent data sockets moving one file.
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
	"github.com/hpclab/datagrid/internal/metrics"
)

func main() {
	if err := run(os.Stdout, 64<<20); err != nil {
		log.Fatal(err)
	}
}

// login dials addr with the given parallelism and negotiates the session.
func login(addr string, streams int) (*gridftp.Client, error) {
	c, err := gridftp.Dial(addr, gridftp.ClientConfig{Parallelism: streams})
	if err != nil {
		return nil, err
	}
	if err := c.Login("anonymous", "demo"); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.Setup(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// run downloads a payloadSize-byte file in every mode, then a 4 KiB slice
// of it, and checks every download byte for byte.
func run(out io.Writer, payloadSize int) error {
	store := gridftp.NewMemStore()
	srv, err := gridftp.NewServer(gridftp.ServerConfig{Store: store})
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "gridftp server on %s\n", addr)

	payload := make([]byte, payloadSize)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := store.Put("/data/payload.bin", payload); err != nil {
		return err
	}

	type runResult struct {
		label   string
		elapsed time.Duration
	}
	var results []runResult
	runs := []struct {
		label   string
		streams int
		modeE   bool
	}{
		{"stream mode (plain)", 1, false},
		{"MODE E, 1 stream", 1, true},
		{"MODE E, 2 streams", 2, true},
		{"MODE E, 4 streams", 4, true},
		{"MODE E, 8 streams", 8, true},
	}
	for _, r := range runs {
		client, err := login(addr, r.streams)
		if err != nil {
			return err
		}
		if r.modeE && !client.ModeE() {
			if err := client.UseModeE(); err != nil {
				return err
			}
		}
		start := time.Now()
		got, err := client.Get("/data/payload.bin")
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("%s: payload corrupted", r.label)
		}
		if err := client.Quit(); err != nil {
			return err
		}
		results = append(results, runResult{r.label, elapsed})
	}

	tb := metrics.NewTable(fmt.Sprintf("downloading %d MiB over loopback", payloadSize>>20),
		"configuration", "time", "goodput")
	for _, r := range results {
		tb.AddRow(r.label, r.elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f Mb/s", float64(payloadSize)*8/r.elapsed.Seconds()/1e6))
	}
	fmt.Fprintln(out, tb.String())

	// Partial transfer: fetch a 4 KiB slice from the middle (ERET).
	client, err := login(addr, 2)
	if err != nil {
		return err
	}
	defer client.Quit()
	mid := payloadSize / 2
	slice, err := client.GetPartial("/data/payload.bin", int64(mid), 4096)
	if err != nil {
		return err
	}
	if !bytes.Equal(slice, payload[mid:mid+4096]) {
		return errors.New("partial transfer corrupted")
	}
	fmt.Fprintf(out, "partial transfer: fetched bytes [%d, %d) correctly\n", mid, mid+4096)
	return nil
}
