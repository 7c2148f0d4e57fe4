package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// spanCapacity is each recorder's fixed span buffer. The busiest traced
// phase (serve-resident, one span per request per client) records well
// under a tenth of it; a full buffer drops spans, and any drop fails the
// run because self times would then undercount.
const spanCapacity = 1 << 18

// spanRec is one recorded span. Times are nanoseconds since the run's
// epoch; Parent is the index of the enclosing span in the same recorder
// (-1 for a root); Group is shared by every span of one campaign or one
// request.
type spanRec struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Group  int64  `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one goroutine in memory. Spans nest by a
// stack: begin opens a child of the innermost open span and returns a
// mark, and end(mark) closes every span opened since, so an early return
// cannot leave the stack unbalanced. A nil recorder records nothing,
// which is how untraced runs call the same code.
type recorder struct {
	epoch   time.Time
	spans   []spanRec // capacity fixed at construction
	stack   []int     // open spans; -1 marks one that was dropped
	group   int64
	dropped int
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]spanRec, 0, spanCapacity)}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	mark := len(r.stack)
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		r.stack = append(r.stack, -1)
		return mark
	}
	parent := -1
	if mark > 0 {
		parent = r.stack[mark-1]
	}
	r.spans = append(r.spans, spanRec{Name: name, Parent: parent, Group: r.group, Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, len(r.spans)-1)
	return mark
}

func (r *recorder) end(mark int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	for len(r.stack) > mark {
		i := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if i >= 0 {
			r.spans[i].End = now
		}
	}
}

// spanAgg is the per-name roll-up of one recorder's spans. Self time is
// a span's duration minus the durations of its direct children; spans of
// one goroutine nest without overlap, so that is the uncovered part.
type spanAgg struct {
	count int
	self  time.Duration
}

// childTimes sums, for each span, the durations of its direct children.
func (r *recorder) childTimes() []time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	return child
}

func aggregate(recs []*recorder) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	for _, r := range recs {
		child := r.childTimes()
		for i, s := range r.spans {
			a := out[s.Name]
			if a == nil {
				a = &spanAgg{}
				out[s.Name] = a
			}
			a.count++
			a.self += s.dur() - child[i]
		}
	}
	return out
}

// kernelShare is the share of stage time spent in posterior and halving
// self time: for every span under a "stage" span, the self time of those
// named posterior.* or halving.*, over the summed stage durations.
func kernelShare(recs []*recorder) float64 {
	var kernel, stages time.Duration
	for _, r := range recs {
		child := r.childTimes()
		for i, s := range r.spans {
			if s.Name == "stage" {
				stages += s.dur()
				continue
			}
			if !isKernelSpan(s.Name) || !underStage(r.spans, i) {
				continue
			}
			kernel += s.dur() - child[i]
		}
	}
	if stages == 0 {
		return 0
	}
	return kernel.Seconds() / stages.Seconds()
}

func isKernelSpan(name string) bool {
	return strings.HasPrefix(name, "posterior.") || strings.HasPrefix(name, "halving.")
}

func underStage(spans []spanRec, i int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if spans[p].Name == "stage" {
			return true
		}
	}
	return false
}

// writeSpans writes every recorder's spans as one JSON object per line,
// renumbering parents so they index the file's own lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, r := range recs {
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				return fmt.Errorf("write spans: %w", errors.Join(err, f.Close()))
			}
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", errors.Join(err, f.Close()))
	}
	return f.Close()
}

func dropped(recs []*recorder) int {
	n := 0
	for _, r := range recs {
		n += r.dropped
	}
	return n
}
