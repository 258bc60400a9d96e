package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"
)

// spanKind names the simulator call a span covers.
type spanKind uint8

const (
	spanNew     spanKind = iota // network.New plus driver construction
	spanTraffic                 // traffic.Synthetic.Tick
	spanCMP                     // cmp.System.Tick
	spanStep                    // network.Network.Step
	spanResult                  // the RunResult read (Network.RunUntil on a drained network)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"new", "traffic.tick", "cmp.tick", "network.step", "result"}

// span is one timed call. Spans of one cycle share the cycle number as
// their id; setup spans carry cycle -1.
type span struct {
	trial      int32
	kind       spanKind
	cycle      int64
	start, end int64 // ns since the tracer was created
}

const spanChunk = 1 << 16

// tracer keeps spans in memory, in fixed-size chunks so recording never
// copies earlier spans, until write is called at the end of the run. A
// nil tracer records nothing.
type tracer struct {
	base   time.Time
	trial  int32
	chunks [][]span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(k spanKind, cycle int64, start, end time.Time) {
	if t == nil {
		return
	}
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
		n++
	}
	t.chunks[n-1] = append(t.chunks[n-1], span{
		trial: t.trial, kind: k, cycle: cycle,
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)),
	})
}

// durations returns the durations of every span of kind k.
func (t *tracer) durations(k spanKind) []float64 {
	var d []float64
	for _, c := range t.chunks {
		for _, s := range c {
			if s.kind == k {
				d = append(d, float64(s.end-s.start))
			}
		}
	}
	return d
}

// write stores every span as gzipped CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "trial,cycle,span,start_ns,end_ns")
	for _, c := range t.chunks {
		for _, s := range c {
			fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.trial, s.cycle, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
