// Command benchgate is the CI bench-regression gate: it compares two
// `go test -bench` output files (a committed baseline and a fresh run),
// reduces each benchmark's samples to its median ns/op, and fails — exit
// code 1 — when the geometric-mean slowdown across the benchmarks both
// files share exceeds a threshold, or when a benchmark the baseline
// records at 0 allocs/op allocates at all.
//
// Usage:
//
//	benchgate -old bench_baseline.txt -new bench_pr.txt            15% geomean gate
//	benchgate -old base.txt -new pr.txt -threshold-pct 10          tighter
//	benchgate ... -max-single-pct 25                               per-bench bound
//	benchgate ... -out bench_delta.txt                             also write the report to a file
//
// The full delta table and verdict are printed on success as well as on
// failure, and -out duplicates them into a file regardless of exit code —
// so a CI run's uploaded artifact is populated on every run, not only
// when the gate trips.
//
// Two bounds guard two failure shapes: the geomean threshold catches a
// broad hot-path slowdown even when each benchmark moves modestly, and
// the (looser) per-benchmark threshold catches one benchmark tanking —
// which a geomean over many healthy benchmarks would dilute.
//
// The allocation gate is the deterministic one: allocs/op is a count, the
// same on any runner, so "0 in the baseline, more than 0 now" needs no
// threshold and no quiet machine — it is what keeps a per-packet
// allocation from returning to a hot path that was made allocation-free.
// It reads the allocs/op column -benchmem prints and skips benchmarks
// that do not report one.
//
// Medians (not means) absorb scheduler noise in -count=N runs, and the
// geomean across benchmarks keeps one noisy microbenchmark from failing
// the job on its own while still catching a broad hot-path regression.
//
// CPU-count suffixes ("-8") get two treatments. A benchmark that appears
// with only one cpu variant per file keys by its bare name, so a
// baseline recorded on one machine class still matches another (the
// absolute numbers only ever gate against their own machine's baseline;
// refresh it — see .github/workflows/ci.yml — when the runner class
// changes). A benchmark run at several -cpu values (the parallel-ingest
// scaling curves) keeps one gate cell per cpu count instead, so a
// regression that only shows up under contention cannot hide behind a
// healthy single-core median.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkHotPath_BatchEncodeExtract-8   3936970   304.5 ns/op   0 B/op ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)

// allocsField matches the -benchmem allocation count of a result line.
var allocsField = regexp.MustCompile(`\s(\d+) allocs/op`)

// parse reads a bench output file into base name → cpu suffix → samples,
// once for ns/op and once for allocs/op (lines without that column add
// nothing to the second). The cpu suffix is "" when go test omitted it
// (GOMAXPROCS=1).
func parse(path string) (ns, allocs map[string]map[string][]float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ns = map[string]map[string][]float64{}
	allocs = map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil || v <= 0 {
			continue
		}
		if ns[m[1]] == nil {
			ns[m[1]] = map[string][]float64{}
		}
		ns[m[1]][m[2]] = append(ns[m[1]][m[2]], v)
		if a := allocsField.FindStringSubmatch(sc.Text()); a != nil {
			n, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				continue
			}
			if allocs[m[1]] == nil {
				allocs[m[1]] = map[string][]float64{}
			}
			allocs[m[1]][m[2]] = append(allocs[m[1]][m[2]], n)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(ns) == 0 {
		return nil, nil, fmt.Errorf("benchgate: no benchmark lines in %s", path)
	}
	return ns, allocs, nil
}

// flatten reduces the two parsed files to gate keys. A base name with at
// most one cpu variant in each file collapses to the bare name (robust
// against machine-class suffix drift, "-8" vs "-4"); a base name run at
// several -cpu values in either file keeps its suffix, one gate cell per
// cpu count, with the suffixless GOMAXPROCS=1 row rendered as "-1".
func flatten(a, b map[string]map[string][]float64) (map[string][]float64, map[string][]float64) {
	multi := map[string]bool{}
	for _, file := range []map[string]map[string][]float64{a, b} {
		for base, cpus := range file {
			if len(cpus) > 1 {
				multi[base] = true
			}
		}
	}
	flat := func(file map[string]map[string][]float64) map[string][]float64 {
		out := map[string][]float64{}
		for base, cpus := range file {
			for cpu, samples := range cpus {
				key := base
				if multi[base] {
					if cpu == "" {
						cpu = "-1"
					}
					key = base + cpu
				}
				out[key] = append(out[key], samples...)
			}
		}
		return out
	}
	return flat(a), flat(b)
}

// allocRegressions names, sorted, every benchmark whose baseline median is
// 0 allocs/op and whose fresh median is not.
func allocRegressions(old, fresh map[string][]float64) []string {
	var names []string
	for name, o := range old {
		if n, ok := fresh[name]; ok && median(o) == 0 && median(n) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	oldPath := flag.String("old", "bench_baseline.txt", "baseline bench output")
	newPath := flag.String("new", "", "fresh bench output to gate")
	thresholdPct := flag.Float64("threshold-pct", 15, "fail when the geomean slowdown exceeds this percentage")
	maxSinglePct := flag.Float64("max-single-pct", 30, "fail when any single benchmark slows down more than this percentage (0 disables)")
	outPath := flag.String("out", "", "also append the report (table + verdict) to this file, pass or fail")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new is required")
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	oldP, oldAllocs, err := parse(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newP, newAllocs, err := parse(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	oldB, newB := flatten(oldP, newP)
	names := make([]string, 0, len(oldB))
	for name := range oldB {
		if _, ok := newB[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: baseline and fresh runs share no benchmarks")
		os.Exit(2)
	}

	var logSum float64
	worstRatio, worstName := 0.0, ""
	fmt.Fprintf(w, "%-58s %14s %14s %8s\n", "benchmark (median ns/op)", "old", "new", "delta")
	for _, name := range names {
		o, n := median(oldB[name]), median(newB[name])
		ratio := n / o
		logSum += math.Log(ratio)
		if ratio > worstRatio {
			worstRatio, worstName = ratio, name
		}
		fmt.Fprintf(w, "%-58s %14.1f %14.1f %+7.1f%%\n",
			strings.TrimPrefix(name, "Benchmark"), o, n, (ratio-1)*100)
	}
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Fprintf(w, "\ngeomean over %d shared benchmarks: %+.1f%% (worst: %s %+.1f%%)\n",
		len(names), (geomean-1)*100, strings.TrimPrefix(worstName, "Benchmark"), (worstRatio-1)*100)

	// A large across-the-board speedup means the baseline came from a
	// slower machine class: the gate still catches catastrophic
	// regressions, but its thresholds are effectively loosened by the
	// machine gap. Say so, loudly, so the baseline gets refreshed.
	if geomean < 1/1.3 {
		fmt.Fprintf(w, "WARNING: everything is %+.0f%% faster than baseline — the baseline looks like\n"+
			"another machine class; refresh bench_baseline.txt on this runner to restore\n"+
			"the gate's full sensitivity\n", (geomean-1)*100)
	}
	failed := false
	if limit := 1 + *thresholdPct/100; geomean > limit {
		fmt.Fprintf(w, "FAIL: geomean slowdown %+.1f%% exceeds the %.0f%% gate\n", (geomean-1)*100, *thresholdPct)
		failed = true
	}
	if limit := 1 + *maxSinglePct/100; *maxSinglePct > 0 && worstRatio > limit {
		fmt.Fprintf(w, "FAIL: %s slowed down %+.1f%%, above the %.0f%% single-benchmark gate\n",
			strings.TrimPrefix(worstName, "Benchmark"), (worstRatio-1)*100, *maxSinglePct)
		failed = true
	}
	oldA, newA := flatten(oldAllocs, newAllocs)
	for _, name := range allocRegressions(oldA, newA) {
		fmt.Fprintf(w, "FAIL: %s allocates (median %.0f allocs/op); its baseline is 0 allocs/op\n",
			strings.TrimPrefix(name, "Benchmark"), median(newA[name]))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Fprintf(w, "PASS: within the %.0f%% geomean / %.0f%% single-benchmark gates, no allocation where the baseline has none\n", *thresholdPct, *maxSinglePct)
}
