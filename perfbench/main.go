// Command perfbench is the repository's serving benchmark. It starts
// accesscheck/server instances in its own process on loopback HTTP — a
// single server, or a coordinator over two workers — drives one of three
// seeded workloads against them, checks every answer against its pinned
// verdict, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced replay). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload solve-cold|serve-hot|fabric-churn -seed N -seconds S -trace 0|1
//	perfbench compare <capture dir A> <capture dir B>
//
// See README.md for the workloads, the metrics and how to check that the
// benchmark is steady.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reported lists the end-to-end metrics the JSON line carries, in print
// order. error_ratio is printed but not carried: it is 0 on a healthy
// build, and the line's failed/attempted already state it.
var reported = []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "fresh_p50_ms",
	"repeat_p50_ms", "exact_ratio", "setup_s", "rss_peak_mb"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout the benchmark runs in; its scratch files go under <root>/.bench_build")
	wl := fs.String("workload", "", "workload: solve-cold, serve-hot or fabric-churn")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	traceMode := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	capDir := fs.String("capture-dir", "", "directory the run's capture goes to (default <root>/.bench_build/captures/latest)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) != "compare" || fs.NArg() != 3 {
			fmt.Fprintln(stderr, "usage: perfbench [flags] | perfbench compare <capture dir A> <capture dir B>")
			return 2
		}
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), fs.Arg(1), fs.Arg(2), stdout, stderr)
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *wl
	}
	if !known || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds ≥ 1, -trace 0|1\n", workloadNames)
		return 2
	}
	scratch := filepath.Join(*root, ".bench_build")
	work, err := os.MkdirTemp(mkdirAll(filepath.Join(scratch, "tmp")), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b := &bench{
		workload: *wl,
		seed:     *seed,
		length:   time.Duration(*seconds) * time.Second,
		clients:  min(2, runtime.NumCPU()),
		work:     work,
		gen:      newGenerator(*seed),
	}
	e := currentEnv()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d clients=%d numcpu=%d gomaxprocs=%d %s commit=%s\n",
		b.workload, b.seed, *seconds, *traceMode, b.clients, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)

	ctx := context.Background()
	var res result
	var answers tally
	if *traceMode == 1 {
		res, answers, err = b.traced(ctx, stdout, filepath.Join(scratch, "traces"))
	} else {
		res, answers, err = b.measured(ctx, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	c := capture{Env: e, Workload: b.workload, Seed: b.seed, Seconds: *seconds, Trace: *traceMode == 1,
		Answers: map[string]int{}, Metrics: res.Metrics}
	for cl, n := range answers {
		c.Answers[class(cl).String()] = n
	}
	dir := *capDir
	if dir == "" {
		dir = filepath.Join(scratch, "captures", "latest")
	}
	if path, err := writeCapture(dir, c); err != nil {
		fmt.Fprintln(stderr, "perfbench: capture:", err)
	} else {
		fmt.Fprintln(stdout, "capture:", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong verdicts — see the answer counts above")
		return 1
	}
	return 0
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// measured runs the end-to-end measurement: set-up, then the measured
// load with tracing off.
func (b *bench) measured(ctx context.Context, stdout io.Writer) (result, tally, error) {
	s, err := b.setUp(ctx)
	if err != nil {
		return result{}, tally{}, err
	}
	l := newLoader(s.rig.front, b.clients, nil)
	res := b.load(ctx, s, l)
	l.close()
	b.reask(ctx, s, &res)
	if err := s.rig.close(); err != nil {
		return result{}, tally{}, err
	}
	m, notes := b.endToEnd(s, res)
	fmt.Fprintf(stdout, "answers: %s\n", res.tally)
	if s.fillTally.attempted() > 0 {
		fmt.Fprintf(stdout, "set-up answers: %s\n", s.fillTally)
	}
	if res.reaskTal.attempted() > 0 {
		fmt.Fprintf(stdout, "re-ask answers: %s\n", res.reaskTal)
	}
	names := append([]string(nil), reported...)
	names = append(names, "error_ratio")
	printMetrics(stdout, m, names)
	for _, n := range notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	out := result{
		Correct:   res.tally[classWrong]+s.fillTally[classWrong]+res.reaskTal[classWrong] == 0,
		Attempted: res.tally.attempted(),
		Failed:    res.tally.failed(),
		Metrics:   map[string]metric{},
	}
	for _, n := range reported {
		if v, ok := m[n]; ok {
			out.Metrics[n] = v
		}
	}
	if out.Attempted == 0 {
		return out, res.tally, errors.New("no request was measured")
	}
	return out, res.tally, nil
}

func printMetrics(w io.Writer, m map[string]metric, order []string) {
	seen := map[string]bool{}
	for _, n := range order {
		if v, ok := m[n]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
			seen[n] = true
		}
	}
	var rest []string
	for n := range m {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range rest {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func runCompare(specPath, dirA, dirB string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", specPath+":", err)
		return 2
	}
	a, err := readCaptures(dirA)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	b, err := readCaptures(dirB)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	ok, err := compare(stdout, spec, a, b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}
