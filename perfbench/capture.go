package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// env stamps a capture with what its numbers depend on besides the code.
type env struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && e.Commit != "unknown" {
			e.Commit += "+dirty"
		}
	}
	return e
}

// sameMachine reports whether two captures may be compared: numbers from
// different CPU counts, GOMAXPROCS or Go versions measure different
// things.
func (e env) sameMachine(o env) bool {
	return e.NumCPU == o.NumCPU && e.GOMAXPROCS == o.GOMAXPROCS && e.GoVersion == o.GoVersion
}

// capture is one run's record: its stamp, inputs and every figure.
type capture struct {
	Env      env               `json:"env"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Answers  map[string]int    `json:"answers"`
	Metrics  map[string]metric `json:"metrics"`
}

func writeCapture(dir string, c capture) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", c.Workload, c.Seed, boolInt(c.Trace)))
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func readCaptures(dir string) ([]capture, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no captures in %s", dir)
	}
	var out []capture
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var c capture
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json compare judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// checkEnvs refuses to mix environments: every capture of both sides must
// share NumCPU, GOMAXPROCS and the Go version, and each side one commit.
func checkEnvs(a, b []capture) error {
	ref := a[0].Env
	for side, cs := range [][]capture{a, b} {
		for _, c := range cs {
			if !c.Env.sameMachine(ref) {
				return fmt.Errorf("refusing to compare: capture %s seed %d ran with numcpu=%d gomaxprocs=%d %s, others with numcpu=%d gomaxprocs=%d %s",
					c.Workload, c.Seed, c.Env.NumCPU, c.Env.GOMAXPROCS, c.Env.GoVersion, ref.NumCPU, ref.GOMAXPROCS, ref.GoVersion)
			}
			if c.Env.Commit != cs[0].Env.Commit {
				return fmt.Errorf("refusing to compare: side %c mixes commits %s and %s", 'A'+side, cs[0].Env.Commit, c.Env.Commit)
			}
		}
	}
	return nil
}

// compare prints, per workload and metric, each side's median and
// quartile spread, and judges the end-to-end metrics against their
// bounds: a spread over its bound (setup_s exempt) or a median of B worse
// than A's by more than the bound fails. It returns false on any failure.
func compare(w io.Writer, spec benchSpec, a, b []capture) (bool, error) {
	if err := checkEnvs(a, b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: commit %s  B: commit %s  (numcpu=%d gomaxprocs=%d %s)\n",
		a[0].Env.Commit, b[0].Env.Commit, a[0].Env.NumCPU, a[0].Env.GOMAXPROCS, a[0].Env.GoVersion)
	type key struct {
		workload string
		trace    bool
	}
	group := func(cs []capture) map[key][]capture {
		m := map[key][]capture{}
		for _, c := range cs {
			k := key{c.Workload, c.Trace}
			m[k] = append(m[k], c)
		}
		return m
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	ok := true
	values := func(cs []capture, name string) []float64 {
		var v []float64
		for _, c := range cs {
			if m, ok := c.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	for _, k := range keys {
		ca, cb := ga[k], gb[k]
		kind := "end-to-end"
		if k.trace {
			kind = "per-layer"
		}
		fmt.Fprintf(w, "\n%s  %s  (A %d runs, B %d runs)\n", k.workload, kind, len(ca), len(cb))
		fmt.Fprintf(w, "  %-32s %12s %8s %12s %8s %8s  %s\n", "metric", "A median", "A iqr", "B median", "B iqr", "B/A-1", "verdict")
		type row struct {
			name, better string
			bound        float64
		}
		var rows []row
		if k.trace {
			for _, p := range spec.PerLayer {
				rows = append(rows, row{name: p.Name})
			}
		} else {
			for _, e := range spec.EndToEnd {
				rows = append(rows, row{e.Name, e.Better, e.Bound})
			}
		}
		for _, r := range rows {
			va, vb := values(ca, r.name), values(cb, r.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-32s missing\n", r.name)
				if !k.trace {
					ok = false
				}
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			shift := 0.0
			if ma != 0 {
				shift = mb/ma - 1
			}
			verdict := ""
			if !k.trace {
				verdict = "ok"
				worse := shift
				if r.better == "higher" {
					worse = -shift
				}
				if r.name != "setup_s" && (sa > r.bound || sb > r.bound) {
					verdict, ok = fmt.Sprintf("SPREAD over bound %.2f", r.bound), false
				} else if worse > r.bound {
					verdict, ok = fmt.Sprintf("WORSE by more than bound %.2f", r.bound), false
				}
			}
			fmt.Fprintf(w, "  %-32s %12.4g %7.1f%% %12.4g %7.1f%% %+7.1f%%  %s\n", r.name, ma, 100*sa, mb, 100*sb, 100*shift, verdict)
		}
	}
	if len(keys) == 0 {
		return false, fmt.Errorf("no workload has captures on both sides")
	}
	return ok, nil
}

// spread is the interquartile distance over the median (0 when the median
// is 0).
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
