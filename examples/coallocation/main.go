// Co-allocated multi-source download over real sockets: three GridFTP
// servers hold the same replica — one of them on a deliberately slow disk —
// and the dynamic chunk scheduler pulls the file from all three at once,
// automatically giving the slow server less work.
//
//	go run ./examples/coallocation
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

	"github.com/hpclab/datagrid/internal/coalloc"
	"github.com/hpclab/datagrid/internal/gridftp"
	"github.com/hpclab/datagrid/internal/metrics"
)

// slowFile throttles reads, simulating a contended disk.
type slowFile struct {
	gridftp.File
	delay time.Duration
}

func (f slowFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.delay)
	return f.File.ReadAt(p, off)
}

// slowStore wraps a MemStore so every opened file reads slowly.
type slowStore struct {
	*gridftp.MemStore
	delay time.Duration
}

func (s slowStore) Open(path string) (gridftp.File, error) {
	f, err := s.MemStore.Open(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, delay: s.delay}, nil
}

func main() {
	if err := run(os.Stdout, 32<<20); err != nil {
		log.Fatal(err)
	}
}

// run co-allocates a size-byte replica, cut into 16 chunks, from three
// loopback servers, and checks every download byte for byte.
func run(out io.Writer, size int) error {
	payload := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(payload)

	// Every replica sits on a (simulated) disk with seek latency, as real
	// 2005 storage nodes did — that is what makes aggregating several
	// servers' disks worthwhile. One replica is markedly slower.
	servers := []struct {
		label string
		store slowStore
	}{
		{"fast-1", slowStore{MemStore: gridftp.NewMemStore(), delay: 6 * time.Millisecond}},
		{"fast-2", slowStore{MemStore: gridftp.NewMemStore(), delay: 6 * time.Millisecond}},
		{"slow", slowStore{MemStore: gridftp.NewMemStore(), delay: 20 * time.Millisecond}},
	}

	var sources []coalloc.Source
	var single *gridftp.Client
	for _, sv := range servers {
		if err := sv.store.Put("/data/replica.bin", payload); err != nil {
			return err
		}
		srv, err := gridftp.NewServer(gridftp.ServerConfig{Store: sv.store})
		if err != nil {
			return err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "replica server %-7s at %s\n", sv.label, addr)
		c, err := gridftp.Dial(addr, gridftp.ClientConfig{Parallelism: 2, Timeout: 30 * time.Second})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Login("anonymous", "demo"); err != nil {
			return err
		}
		if err := c.Setup(); err != nil {
			return err
		}
		src, err := coalloc.NewGridFTPSource(sv.label, c)
		if err != nil {
			return err
		}
		sources = append(sources, src)
		if sv.label == "fast-1" {
			single = c
		}
	}

	// Baseline: whole file from one fast server.
	start := time.Now()
	got, err := single.Get("/data/replica.bin")
	if err != nil {
		return err
	}
	singleTime := time.Since(start)
	if !bytes.Equal(got, payload) {
		return errors.New("single-source download corrupted")
	}

	// Co-allocated: chunks from all three.
	start = time.Now()
	got, stats, err := coalloc.Fetch(sources, "/data/replica.bin", int64(size), coalloc.Options{ChunkBytes: int64(size) / 16})
	if err != nil {
		return err
	}
	coTime := time.Since(start)
	if !bytes.Equal(got, payload) {
		return errors.New("co-allocated download corrupted")
	}

	tb := metrics.NewTable(fmt.Sprintf("downloading %d MiB over loopback", size>>20),
		"configuration", "time")
	tb.AddRow("single fast-1 server", singleTime.Round(time.Millisecond).String())
	tb.AddRow("co-allocated, 3 servers", coTime.Round(time.Millisecond).String())
	fmt.Fprintln(out)
	fmt.Fprintln(out, tb.String())

	dist := metrics.NewTable("dynamic chunk distribution", "server", "chunks", "MiB")
	for _, sv := range servers {
		dist.AddRow(sv.label,
			fmt.Sprintf("%d", stats.ChunksBySource[sv.label]),
			fmt.Sprintf("%.1f", float64(stats.BytesBySource[sv.label])/float64(1<<20)))
	}
	fmt.Fprintln(out, dist.String())
	fmt.Fprintln(out, "note how the slow server is handed fewer chunks automatically")
	return nil
}
