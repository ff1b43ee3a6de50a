package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"
)

// This box is a 2-vCPU virtual machine on a shared host, and its speed
// moves by a factor of up to 1.6 between phases that last from seconds
// to minutes (not stolen cycles — /proc/stat steal stays at 0.2% — but
// contention for whatever the vCPUs share with their neighbours). Within
// such a phase every round of a workload is slow, so no amount of
// rounds, medians or best-of-N inside a run brings two runs together:
// the raw ops/s of identical code spread 20–55% between runs.
//
// What does bring them together is measuring the machine next to the
// program. Before and after every timed round the calibrator runs two
// fixed kernels that touch nothing of the program under test — one
// in-process (hash-map point reads, small allocations, SHA-256 and CRC
// over short buffers), one over loopback TCP (small HTTP POSTs on one
// connection, i.e. syscalls, wake-ups and the second vCPU) — and the
// round's speed index is how much slower than on the quiet box they
// ran, as the geometric mean of the two. Every time the benchmark
// reports is divided by the index of the round it was taken in: times
// are "at reference speed". The kernels are part of the benchmark, not
// of the program, so a change to the program cannot move them.

// Kernel times on this box when it is quiet: the first decile of ~2,000
// samples taken over an hour. They only fix the scale of the index.
const (
	refInprocMS   = 10.7
	refLoopbackMS = 4.3
)

type calibrator struct {
	table map[int32][]byte
	keys  []int32
	sink  uint64

	srv  *http.Server
	done chan error
	tr   *http.Transport
	hc   *http.Client
	url  string
	body []byte
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{table: make(map[int32][]byte, 1<<17), done: make(chan error, 1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<17; i++ {
		b := make([]byte, 8+rng.Intn(16))
		rng.Read(b)
		c.table[int32(i*7)] = b
	}
	c.keys = make([]int32, 1<<15)
	for i := range c.keys {
		c.keys[i] = int32(rng.Intn(1<<17) * 7)
	}
	c.body = make([]byte, 6<<10)
	rng.Read(c.body)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(n))
		w.Write(out[:])
	})}
	go func() { c.done <- c.srv.Serve(ln) }()
	c.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c.hc = &http.Client{Transport: c.tr, Timeout: time.Minute}
	c.url = "http://" + ln.Addr().String() + "/"
	return c, nil
}

func (c *calibrator) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	if serr := <-c.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	c.tr.CloseIdleConnections()
	return err
}

// inproc is the in-process kernel.
func (c *calibrator) inproc() time.Duration {
	t0 := time.Now()
	var head [sha256.Size]byte
	h := sha256.New()
	for _, k := range c.keys {
		b := c.table[k]
		vals := make([]uint32, 0, len(b))
		for _, x := range b {
			vals = append(vals, uint32(x)*2654435761)
		}
		for _, v := range vals {
			c.sink += uint64(v)
		}
		if k&7 == 0 {
			h.Reset()
			h.Write(head[:])
			h.Write(b)
			h.Sum(head[:0])
			c.sink += uint64(crc32.ChecksumIEEE(b))
		}
	}
	c.sink += uint64(head[0])
	return time.Since(t0)
}

// loopback is the loopback-TCP kernel.
func (c *calibrator) loopback() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < 24; i++ {
		resp, err := c.hc.Post(c.url, "application/octet-stream", bytes.NewReader(c.body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// index runs both kernels once and returns how much slower than the
// quiet box the machine is right now (1 = reference speed).
func (c *calibrator) index() (float64, error) {
	in := c.inproc()
	lo, err := c.loopback()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(float64(in) / (refInprocMS * 1e6) * float64(lo) / (refLoopbackMS * 1e6)), nil
}

// around runs fn between two index readings and returns their mean: the
// speed index of the time fn ran in.
func (c *calibrator) around(fn func()) (float64, error) {
	before, err := c.index()
	if err != nil {
		return 0, err
	}
	fn()
	after, err := c.index()
	return (before + after) / 2, err
}
