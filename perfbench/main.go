// Command perfbench is the repository's benchmark: it stands up the
// system in process (a gdocs.Server over a store.Disk that fsyncs every
// save, behind a loopback HTTP server) and drives one seeded workload
// through gdocs.Client and a pipelined mediator.Extension per author:
//
//	typing     two authors type bursts into their own 50,000-char documents
//	cold-open  one loop opens documents of a 300-document population, each
//	           through a fresh extension, with a server cache of 1/6
//	coedit     two authors type bursts into one shared 20,000-char document
//
// It checks every output and prints, as its last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). See README.md in this directory.
//
// Usage: perfbench --workload typing --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"privedit/internal/obs"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "typing, cold-open or coedit")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dataDir, "data-dir", filepath.Join(".bench_build", "data"), "directory for the store's files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	res, checkErr, err := run(cfg, fullShape, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", checkErr)
		os.Exit(1)
	}
}

// run sets the workload up sh.setups times, measures the last set-up for
// cfg.seconds and checks its outputs. A failed output check is returned
// as checkErr alongside a result with Correct false; err means no result.
func run(cfg config, sh shape, report io.Writer) (res result, checkErr, err error) {
	w, err := newWorkload(cfg.workload, cfg.seed, sh)
	if err != nil {
		return res, nil, err
	}
	var rec *recorder
	if cfg.trace {
		obs.Enable()
		rec = newRecorder()
	}
	leaks := newLeakCheck(w.inPlain)

	var (
		g      *rig
		setups []float64
	)
	for i := 0; i < sh.setups; i++ {
		if g != nil {
			if err := teardown(w, g); err != nil {
				return res, nil, err
			}
		}
		start := time.Now()
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), i))
		if g, err = openRig(dir, rec, leaks); err != nil {
			return res, nil, err
		}
		if err := w.setup(g); err != nil {
			return res, nil, errors.Join(fmt.Errorf("setup: %w", err), teardown(w, g))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := teardown(w, g); err == nil {
			err = cerr
		}
	}()
	fp := fingerprint(cfg, sh, w, g)
	if err := json.NewEncoder(report).Encode(map[string]any{"fingerprint": fp}); err != nil {
		return res, nil, err
	}

	// Warm up: connections, caches and lazily built state.
	for i := 0; i < sh.warmUnits; i++ {
		measureLoops(w, g, 0, false, &stats{})
	}
	// Start the window from a collected heap, not from set-up's garbage.
	runtime.GC()
	var st stats
	obs0 := readObs()
	cpu0 := readCPU()
	heap := sampleHeap()
	elapsed := measureLoops(w, g, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace, &st)
	heapMB := heap()
	cpu1 := readCPU()
	obs1 := readObs()

	storedBytes, chars, checkErr := w.check(g)
	if checkErr == nil && leaks.hits.Load() > 0 {
		checkErr = fmt.Errorf("%d request bodies or stored documents held a run of typed plaintext", leaks.hits.Load())
	}
	res = result{Correct: checkErr == nil, Attempted: st.attempted, Failed: st.failed}
	if !cfg.trace {
		res.Metrics = endToEnd(&st, elapsed.Seconds(), pct(setups, 0.5), heapMB, storedBytes, chars)
		writeReport(report, cfg.workload, res, &st)
		return res, checkErr, nil
	}
	transports, start, tape := w.probeInputs(g)
	probes, err := probe(transports, start, tape)
	if err != nil {
		return res, nil, fmt.Errorf("core probes: %w", err)
	}
	res.Metrics = layers(link(rec.snapshot()), layerInputs{
		st:            &st,
		obs:           obs1.minus(obs0),
		gcCPUFraction: ratio(cpu1.gc-cpu0.gc, cpu1.total-cpu0.total),
		probes:        probes,
	})
	writeReport(report, cfg.workload, res, &st)
	return res, checkErr, nil
}

func teardown(w workload, g *rig) error {
	return errors.Join(w.close(), g.close())
}

// measureLoops runs the workload's closed loops until window has passed
// (each loop finishes the unit it started) and returns the elapsed time.
// A zero window runs one unit per loop. In a traced run every other unit
// is traced, so the untraced units in between give the tracing overhead.
func measureLoops(w workload, g *rig, window time.Duration, trace bool, st *stats) time.Duration {
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < w.loops(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for u := 0; u == 0 || time.Now().Before(deadline); u++ {
				w.unit(g, i, trace && (u+i)%2 == 0, st)
			}
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// obsDelta holds the obs.Default counters the per-layer metrics use: the
// store's group commits are invisible from outside the store.
type obsDelta struct{ fsyncs, puts float64 }

func readObs() obsDelta {
	return obsDelta{
		fsyncs: obs.Default.Sum("privedit_store_wal_fsyncs_total"),
		puts:   obs.Default.Sum("privedit_store_puts_total"),
	}
}

func (a obsDelta) minus(b obsDelta) obsDelta {
	return obsDelta{a.fsyncs - b.fsyncs, a.puts - b.puts}
}

type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{s[0].Value.Float64(), s[1].Value.Float64()}
}

// sampleHeap samples the live heap (what the last GC marked) every few
// milliseconds until the returned function is called, which returns the
// largest sample over the window in MB.
func sampleHeap() (stop func() float64) {
	const every = 5 * time.Millisecond
	done := make(chan struct{})
	var mb []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return slices.Max(mb)
	}
}

// fingerprint describes the machine and configuration a result belongs to.
func fingerprint(cfg config, sh shape, w workload, g *rig) map[string]any {
	fp := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"os_arch":        runtime.GOOS + "/" + runtime.GOARCH,
		"data_dir_fs":    fsType(g.dir),
		"sync_policy":    "SyncAlways",
		"scheme":         "RPC",
		"block_chars":    blockChars,
		"pipeline_depth": pipelineDepth,
		"connections":    runtime.NumCPU(),
		"loops":          w.loops(),
		"setups":         sh.setups,
	}
	switch w := w.(type) {
	case *typing:
		fp["doc_chars"] = w.chars
		fp["cache_bytes"] = "all resident"
	case *coedit:
		fp["doc_chars"] = w.chars
		fp["cache_bytes"] = "all resident"
	case *coldOpen:
		fp["doc_chars"] = sh.openSizes
		fp["population"] = sh.population
		fp["cache_bytes"] = w.budget
	}
	return fp
}

// writeReport prints the result for a reader, one metric a line.
func writeReport(out io.Writer, workload string, res result, st *stats) {
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d failed_ratio=%.6f\n",
		workload, res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		alias := ""
		if a, ok := aliases[workload][name]; ok {
			alias = " (" + a + ")"
		}
		fmt.Fprintf(out, "  %-34s %14.4f %s%s\n", name, m.Value, m.Unit, alias)
	}
	fmt.Fprintf(out, "  samples: %d ops, %d flushes untraced; %d ops, %d flushes traced\n",
		len(st.ops[0]), len(st.flushes[0]), len(st.ops[1]), len(st.flushes[1]))
}

// aliases names each end-to-end metric by what it measures on a workload.
var aliases = map[string]map[string]string{
	"typing": saveAliases,
	"coedit": saveAliases,
	"cold-open": {
		"op_ms.p50": "open_ms.p50", "op_ms.p99": "open_ms.p99",
		"flush_ms.p50": "open_settled_ms.p50", "flush_ms.p95": "open_settled_ms.p95",
		"ops_per_s": "opens_per_s",
	},
}

var saveAliases = map[string]string{
	"op_ms.p50": "save_ack_ms.p50", "op_ms.p99": "save_ack_ms.p99",
	"flush_ms.p50": "save_durable_ms.p50", "flush_ms.p95": "save_durable_ms.p95",
	"ops_per_s": "edits_per_s",
}
