package main

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared virtual machines whose speed drifts by a
// factor of two within minutes: CPU steal and the neighbours of a vCPU
// come and go. A time measured on such a host says as much about the host
// as about the program. So the end-to-end timings are reported at a fixed
// reference speed: between units of work, while the program is idle, the
// benchmark times a sweep of its own whose work never changes, and scales
// each measured time by the sweep's reference time over the sweep times
// around it. A change to the program moves the scaled figures exactly as
// it moves the raw ones; a slower host moves the sweep as well and cancels
// out. The per-layer metrics stay raw, and host.calibration_ms reports the
// sweep time itself.

// refCalibrationMs is the 8 MiB sweep's time on the reference host, a
// 2-vCPU Xeon VM, about what it measured when its host was quiet (the
// sweep took 3.0–5.0 ms there as the host's load came and went). A scaled
// time is what a host whose sweep takes this long would measure.
const refCalibrationMs = 4.0

// calibrationBytes is the default working set: the size of the dense
// campaign posterior, beyond L2 and within L3 on the reference host.
const calibrationBytes = 8 << 20

// calibrator times a fixed sweep shaped like the program's posterior
// kernels: passes over a working set, each a fork-join in which GOMAXPROCS
// goroutines — as many as the engine pool runs — claim chunks dynamically
// and do a thinned summary's work on them (an update, a bit walk and
// logarithms; the summary is most of a dense stage's time). The data is
// not re-touched before it is timed, so, like the program's, it has sat in
// the caches since the last sweep.
//
// The program is compute-bound, so the sweep is too: a memory-bound sweep
// that only scaled and summed the array removed only about half of the
// host's drift.
//
// The campaigns use the 8 MiB default. serve-resident uses 512 KiB, which
// stays in L2 as its requests, each on one 32 KiB posterior, do: there an
// 8 MiB sweep moved with L3 neighbours that the requests do not feel, and
// scaling by it made repeat runs of one seed spread more than raw times.
type calibrator struct {
	// bytes is the working set, swept calibrationBytes / bytes times so
	// that every calibrator does the same work; 0 means calibrationBytes.
	bytes int
	// refMs is the sweep time on the reference host; 0 (unset) means
	// refCalibrationMs.
	refMs float64
	data  []float64
	sink  []float64
}

// hostCal is the running workload's calibrator.
var hostCal calibrator

func (c *calibrator) ref() float64 {
	if c.refMs <= 0 {
		return refCalibrationMs
	}
	return c.refMs
}

// calChunks is how many chunks one pass is claimed in: eight per worker
// on two workers, the engine pool's default grain.
const calChunks = 16

// measure runs the sweep once and returns its wall time in ms.
func (c *calibrator) measure() float64 {
	p := runtime.GOMAXPROCS(0)
	if c.bytes == 0 {
		c.bytes = calibrationBytes
	}
	if c.data == nil {
		c.data = make([]float64, c.bytes/8)
		for j := range c.data {
			c.data[j] = 0.5
		}
	}
	if len(c.sink) != p {
		c.sink = make([]float64, p)
	}
	grain := len(c.data) / calChunks
	start := time.Now()
	for pass := 0; pass < calibrationBytes/c.bytes; pass++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			//lint:allow concurrency the calibration sweep is GOMAXPROCS-wide by definition; measure waits for every worker
			go func() {
				defer wg.Done()
				var ent float64
				var marg [8]float64
				for {
					k := int(next.Add(1)) - 1
					if k >= calChunks {
						break
					}
					chunk := c.data[k*grain : (k+1)*grain]
					for j := range chunk {
						// A posterior summary's work per state, thinned
						// to keep the sweep short: a walk over the
						// state's low bits and, for every fourth state,
						// an entropy term. The update keeps every value
						// at 0.5, however many sweeps run.
						x := chunk[j]*0.5 + 0.25
						chunk[j] = x
						if j&3 == 0 {
							ent -= x * math.Log(x)
						}
						for v := uint(j) & 0x7; v != 0; v &= v - 1 {
							marg[bits.TrailingZeros(v)] += x
						}
					}
				}
				c.sink[w] = ent + marg[0]
			}()
		}
		wg.Wait()
	}
	return ms(time.Since(start))
}

// calSample is one sweep time in ms, taken at the given time of a drive.
type calSample struct {
	at time.Duration
	ms float64
}

// slowdown is how much slower than the reference the host ran over
// [lo, hi] of a drive: the mean sweep time taken within it, or of the
// sweeps nearest to it, over refCalibrationMs. Times measured in that
// span are divided by it, rates multiplied. The mean, not the median: a
// steal of the vCPU hits some sweeps and not others, and what the
// program lost over the span is the average.
func slowdown(cals []calSample, lo, hi time.Duration) float64 {
	var in []float64
	for _, c := range cals {
		if c.at >= lo && c.at <= hi {
			in = append(in, c.ms)
		}
	}
	if len(in) == 0 {
		// No sweep inside the span: use the last before it and the first
		// after it.
		for i, c := range cals {
			if c.at > hi {
				in = append(in, c.ms)
				if i > 0 {
					in = append(in, cals[i-1].ms)
				}
				break
			}
		}
		if len(in) == 0 && len(cals) > 0 {
			in = append(in, cals[len(cals)-1].ms)
		}
	}
	if len(in) == 0 {
		return 1
	}
	var sum float64
	for _, x := range in {
		sum += x
	}
	return sum / float64(len(in)) / hostCal.ref()
}

// calMedian is the median sweep time of a drive, in ms.
func calMedian(cals []calSample) float64 {
	xs := make([]float64, len(cals))
	for i, c := range cals {
		xs[i] = c.ms
	}
	return quantile(xs, 0.5)
}
