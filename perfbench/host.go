package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies what produced a result. The host fields decide
// whether two results are comparable at all; the source fields say which
// code ran and are expected to differ between the two sides of a compare.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	CkptFS     string `json:"ckpt_fs"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	GitSHA     string `json:"git_sha"`
	SourceSHA  string `json:"source_sha256"`
}

// hostKey is the part of the fingerprint two results must share to be
// compared.
func (f fingerprint) hostKey() string {
	return fmt.Sprintf("%s|%d|%d|%s|%s|%s", f.CPUModel, f.NProc, f.GOMAXPROCS, f.GOAMD64, f.GoVersion, f.CkptFS)
}

func hostFingerprint(root, ckptDir string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    buildSetting("GOAMD64"),
		GoVersion:  runtime.Version(),
		CkptFS:     fsType(ckptDir),
		L2Bytes:    cacheBytes(2),
		L3Bytes:    cacheBytes(3),
		GitSHA:     gitSHA(root),
		SourceSHA:  sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func buildSetting(key string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == key {
				return s.Value
			}
		}
	}
	return "unset"
}

// fsType names the filesystem holding dir (statfs magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cacheBytes reads the size of cpu0's unified cache at the given level.
func cacheBytes(level int) int64 {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil {
		return 0
	}
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v * mult
		}
	}
	return 0
}

// cacheRegime says where a posterior of n subjects (2^n float64 states)
// sits relative to this host's caches — the label ns_per_state carries.
func cacheRegime(n int, l2, l3 int64) string {
	size := int64(8) << n
	switch {
	case l2 > 0 && size <= l2:
		return fmt.Sprintf("%s posterior fits in L2 (%s)", kib(size), kib(l2))
	case l3 > 0 && size <= l3:
		return fmt.Sprintf("%s posterior exceeds L2 (%s), fits in L3 (%s)", kib(size), kib(l2), kib(l3))
	case l3 > 0:
		return fmt.Sprintf("%s posterior exceeds L3 (%s)", kib(size), kib(l3))
	}
	return "cache sizes unknown"
}

func kib(b int64) string { return fmt.Sprintf("%d KiB", b>>10) }

// gitSHA resolves HEAD when the checkout is a git work tree; benchmark
// checkouts usually are not, and sourceDigest identifies the code there.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// dot-directories), in path order.
func sourceDigest(root string) string {
	var paths []string
	// An unreadable entry only narrows the digest.
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		rel, rerr := filepath.Rel(root, p)
		if err != nil || rerr != nil {
			continue
		}
		h.Write([]byte(rel + "\x00")) //lint:allow errcheck hash.Hash writes never fail
		h.Write(b)                    //lint:allow errcheck hash.Hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes is the process's user and system CPU time so far.
type cpuTimes struct{ user, sys time.Duration }

func processCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// rssWindows records the process's peak resident set size per window
// of a drive: the kernel's high-water mark is reset at the start of each
// window (/proc/self/clear_refs) and read at its end (VmHWM). Where the
// reset is refused, every window reads the peak of the whole process.
type rssWindows struct {
	stop, done chan struct{}
	peaks      []float64
}

func watchRSS(period time.Duration) *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	//lint:allow concurrency a timer loop sampling RSS, not lattice work; median() stops it and waits for it
	go func() {
		defer close(w.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.peaks = append(w.peaks, peakRSSMB())
				resetPeakRSS()
			case <-w.stop:
				w.peaks = append(w.peaks, peakRSSMB())
				return
			}
		}
	}()
	return w
}

// median stops the sampler and returns the median window peak in MiB.
func (w *rssWindows) median() float64 {
	close(w.stop)
	<-w.done
	return quantile(w.peaks, 0.5)
}

func resetPeakRSS() {
	//lint:allow errcheck best effort: where the reset is refused, every window reads the process peak
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident high-water mark in MiB, from
// /proc/self/status or, failing that, getrusage.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
