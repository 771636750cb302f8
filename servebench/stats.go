package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"autovalidate/internal/buildinfo"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	at         time.Time
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	gcCycles   float64
}

// runtimeDelta is the change between two samples, or the sum of such
// changes.
type runtimeDelta struct {
	elapsed    time.Duration
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	gcCycles   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{at: time.Now(), allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), gcCycles: val(3)}
}

func (d runtimeDelta) add(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		elapsed:    d.elapsed + o.elapsed,
		allocBytes: d.allocBytes + o.allocBytes,
		gcCPU:      d.gcCPU + o.gcCPU,
		totalCPU:   d.totalCPU + o.totalCPU,
		gcCycles:   d.gcCycles + o.gcCycles,
	}
}

func (s runtimeSample) since(prev runtimeSample) runtimeDelta {
	return runtimeDelta{
		elapsed:    s.at.Sub(prev.at),
		allocBytes: s.allocBytes - prev.allocBytes,
		gcCPU:      s.gcCPU - prev.gcCPU,
		totalCPU:   s.totalCPU - prev.totalCPU,
		gcCycles:   s.gcCycles - prev.gcCycles,
	}
}

// resetPeakRSS returns freed memory to the OS and restarts the
// process's resident high-water mark (VmHWM) from the current resident
// set. Where /proc/self/clear_refs cannot be written the mark keeps
// counting from process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: peak RSS not reset:", err)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// identity names the build and machine a result came from.
type identity struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	OpenRate     float64 `json:"open_loop_rate_per_s"`
	Build        string  `json:"build"`
	SourceHash   string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	FinishedUnix int64   `json:"finished_unix"`
}

func runIdentity(cfg config, wl workload) identity {
	return identity{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		OpenRate:     wl.openRate,
		Build:        buildinfo.Get().String(),
		SourceHash:   sourceHash(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		FinishedUnix: time.Now().Unix(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file of the checkout
// the benchmark runs in (its working directory), so runs of the same
// code compare equal even where no VCS revision is embedded.
func sourceHash() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// catchupWatch records when the follower first reaches each index
// generation, so follower catch-up after every ingest can be measured
// from outside the program.
type catchupWatch struct {
	done chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	seen map[uint64]time.Time
}

func startCatchupWatch(top *topology) *catchupWatch {
	w := &catchupWatch{done: make(chan struct{}), seen: map[uint64]time.Time{}}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			gen := top.follower.svc.Generation()
			w.mu.Lock()
			if _, ok := w.seen[gen]; !ok {
				w.seen[gen] = time.Now()
			}
			w.mu.Unlock()
			select {
			case <-w.done:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *catchupWatch) stop() {
	close(w.done)
	w.wg.Wait()
}

// lag returns how long after ack the follower first served generation
// gen or a later one (a poll can apply several deltas at once).
func (w *catchupWatch) lag(gen uint64, ack time.Time) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first time.Time
	for g, at := range w.seen {
		if g >= gen && (first.IsZero() || at.Before(first)) {
			first = at
		}
	}
	if first.IsZero() {
		return 0, false
	}
	return first.Sub(ack), true
}
