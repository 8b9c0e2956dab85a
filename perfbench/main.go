// Command perfbench is the repository's benchmark. It runs one of three
// single-client, closed-loop workloads against the engine, checks every
// answer against a model it computes itself, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) as
// one JSON object on the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload fig1 --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (run.sh builds and runs it there); see
// README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	starburst "repro"
)

// spec names a workload and builds it from a seed. roundsPerSecond
// turns --seconds into the run's fixed number of timed rounds: about
// what the reference machine completes in that time.
type spec struct {
	name            string
	roundsPerSecond float64
	make            func(seed int64) workload
}

var specs = []spec{
	{
		name:            "fig1",
		roundsPerSecond: 22,
		make: func(seed int64) workload {
			return newFig1(seed, fig1Size{quotations: 3000, inventory: 24, readsPerWrite: 4})
		},
	},
	{
		name:            "oltp",
		roundsPerSecond: 200,
		make: func(seed int64) workload {
			return newOLTP(seed, oltpSize{rows: 10000, readsPerWrite: 10})
		},
	},
	{
		name:            "htap",
		roundsPerSecond: 8,
		make: func(seed int64) workload {
			return newHTAP(seed, htapSize{customers: 2000, orders: 16000, writesPerReport: 20})
		},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// minSetupTime and maxSetups bound the repeated set-ups: a set-up of a
// few milliseconds is repeated until two seconds have been spent on them,
// so that its median rests on enough samples to be steady.
const (
	minSetupTime = 2 * time.Second
	maxSetups    = 50
)

// config is one run's settings.
type config struct {
	seed int64
	// rounds is the number of timed rounds. It is fixed rather than
	// bounded by a clock, so that the data a round sees (table sizes,
	// htap's GC queue under the held snapshot) grows along the same path
	// however fast the engine runs.
	rounds int
	trace  bool
	// workdir holds DISK data directories and trace files.
	workdir string
	// setups is the least number of times the DB is set up; cheap
	// set-ups repeat until minSetupTime has passed. setup_s is their
	// median, and the last one is measured.
	setups int
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is a run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig1, oltp or htap")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds on the reference machine; sets the number of timed rounds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for DISK data and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := findSpec(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fig1|oltp|htap, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, rounds: max(1, int(math.Ceil(*seconds*s.roundsPerSecond))),
		trace: *trace == 1, workdir: *workdir, setups: 5}
	rep, err := runBenchmark(s, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		return 2
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	if err := printResult(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !rep.correct {
		return 1
	}
	return 0
}

func printResult(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// runBenchmark sets the workload up cfg.setups times, runs one untimed
// warm-up round and then cfg.rounds timed rounds, and checks the
// answers after the run. A wrong answer ends the run with
// correct=false; any other failure is returned as an error.
func runBenchmark(s spec, cfg config) (*report, error) {
	var (
		w      workload
		db     *starburst.DB
		setups []float64
	)
	var spent time.Duration
	for k := 0; k < cfg.setups || (spent < minSetupTime && k < maxSetups); k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", k-1, err)
			}
		}
		w = s.make(cfg.seed)
		runtime.GC()
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", s.name, os.Getpid(), k))
		t0 := time.Now()
		var err error
		db, err = w.setup(dir)
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer w.close()
	if cfg.trace {
		db.SetTracing(true)
	}
	r := &runner{db: db}
	if cfg.trace {
		r.tr = newTracer(db)
	}
	rep := &report{correct: true}
	fail := func(err error) (*report, error) {
		if isMismatch(err) {
			rep.correct = false
			rep.attempted, rep.failed = max(1, r.attempted), r.failed
			rep.notes = append(rep.notes, "FAILED: "+err.Error())
			return rep, nil
		}
		return nil, err
	}
	if err := w.begin(); err != nil {
		return fail(err)
	}
	if err := w.round(r); err != nil {
		return fail(err)
	}
	runtime.GC()
	r.timed = true
	start := time.Now()
	for k := 0; k < cfg.rounds; k++ {
		if err := w.round(r); err != nil {
			return fail(err)
		}
	}
	elapsed := time.Since(start)
	r.timed = false

	// The samples are summarized and dropped before the heap is read,
	// so the live heap holds the DB and the workload's model only.
	var sum [numClasses]classSummary
	for c := opClass(0); c < numClasses; c++ {
		sum[c] = summarize(&r.samples[c])
	}
	r.samples = [numClasses]samples{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapLive := float64(ms.HeapAlloc) / (1 << 20)
	var sysRows int64
	if cfg.trace {
		res, err := admin(db, "SELECT COUNT(*) FROM SYS.STATEMENTS")
		if err != nil {
			return nil, err
		}
		if sysRows, err = intCell(res, 0, 0); err != nil {
			return nil, err
		}
	}
	if err := w.check(); err != nil {
		return fail(err)
	}
	if r.tr != nil && r.tr.err != nil {
		return nil, r.tr.err
	}

	rep.attempted, rep.failed = r.attempted, r.failed
	rep.notes = append(rep.notes, fmt.Sprintf("workload=%s seed=%d trace=%v rounds=%d timed=%.2fs attempted=%d failed=%d",
		s.name, cfg.seed, cfg.trace, cfg.rounds, elapsed.Seconds(), r.attempted, r.failed))
	rep.notes = append(rep.notes, fmt.Sprintf("setup_s: %d set-ups, median %.4fs", len(setups), medianFloat(setups)))
	for c := opClass(0); c < numClasses; c++ {
		rep.notes = append(rep.notes, fmt.Sprintf("%ss: n=%d p50=%.1fus tail=p%g %.1fus (p99 %.1fus) cpu=%.1fus/op",
			c, sum[c].n, us(sum[c].p50), sum[c].tailPct, us(sum[c].tail), us(sum[c].p99), sum[c].cpuMean/1e3))
	}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", s.name, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		layers, notes := layerMetrics(r.tr.spans, sysRows)
		rep.metrics = layers
		rep.notes = append(rep.notes, notes...)
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(r.tr.spans), path))
		return rep, nil
	}
	rep.metrics = []metric{
		{"setup_s", medianFloat(setups), "s"},
		{"read_p50_us", us(sum[classRead].p50), "us"},
		{"read_tail_us", us(sum[classRead].tail), "us"},
		{"write_p50_us", us(sum[classWrite].p50), "us"},
		{"write_tail_us", us(sum[classWrite].tail), "us"},
		{"read_cpu_us", sum[classRead].cpuMean / 1e3, "us"},
		{"write_cpu_us", sum[classWrite].cpuMean / 1e3, "us"},
		{"heap_live_mb", heapLive, "MiB"},
	}
	return rep, nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
