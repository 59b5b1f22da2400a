// Command pintbench is the repository's benchmark: four workloads over
// the real exporter → pintd → /snapshot → gate chain, declared in
// BENCHMARK.json (the driver's contract) and workloads.json (every size
// and every prediction), measured from outside the layers.
//
//	bash cmd/pintbench/run.sh --workload ingest-saturate --seed 1 --seconds 20 --trace 0
//	bash cmd/pintbench/run.sh -workload all -seed 7 -out bench.json
//	bash cmd/pintbench/run.sh -workload all -aa
//	bash cmd/pintbench/run.sh -workload encode-stream -trace 1
//
// The untraced run prints every end-to-end metric by name with its unit,
// verifies the outputs and exits non-zero on any mismatch; the traced run
// is a separate, shorter pass over the same generated inputs that yields
// the per-layer metrics and writes trace.json. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
//
// All load comes from this one process with at most nproc senders, and
// every byte crosses the host's loopback interface only.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	traceOut string
	aa       bool
	scale    string
	flip     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pintbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.root, "root", "", "repository root (default: the directory above the working directory that holds BENCHMARK.json)")
	fs.StringVar(&o.workload, "workload", "all", "workload name from BENCHMARK.json, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the testbench plan and the flow and latency generation")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", "", "write the full result document to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its spans (default .bench_build/trace.json under the root)")
	fs.BoolVar(&o.aa, "aa", false, "run the set twice and compare the two against the bounds")
	fs.StringVar(&o.scale, "scale", "full", "sizes to use from workloads.json: full or smoke")
	fs.BoolVar(&o.flip, "flip-oracle", false, "flip one digest bit in the serial reference (the checks must then fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pintbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "pintbench: -trace is 0 or 1\n")
		return 2
	}
	if err := benchMain(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "pintbench: %v\n", err)
		return 1
	}
	return 0
}

// errIncorrect is returned after the results are printed when any output
// check failed, so the exit code is non-zero but the report is complete.
var errIncorrect = errors.New("output checks failed")

func benchMain(o options, stdout, stderr io.Writer) error {
	root := o.root
	if root == "" {
		var err error
		if root, err = findRoot("."); err != nil {
			return err
		}
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	names := sp.workloadNames()
	if o.workload != "all" {
		if _, err := sp.sizes(o.workload, o.scale); err != nil {
			return err
		}
		names = []string{o.workload}
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.bench.RunSeconds)
	}
	if sp.work.MaxSenders > runtime.NumCPU() {
		fmt.Fprintf(stderr, "pintbench: warning: sized for %d senders, this host has %d CPUs\n", sp.work.MaxSenders, runtime.NumCPU())
	}

	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	// A signal must not leave children or scratch behind: cancel the
	// context (which kills every child) and fall through the defers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := &env{
		spec: sp, workDir: workDir, seed: o.seed, seconds: o.seconds,
		scale: o.scale, flipOracle: o.flip, logw: stderr,
		http: &http.Client{Timeout: 60 * time.Second},
	}
	if e.pintd, e.buildS, err = buildPintd(ctx, root, build); err != nil {
		return err
	}
	e.logf("pintbench: built cmd/pintd in %.2f s (bench.build_s, not part of any setup_s)", e.buildS)
	if o.trace == 1 {
		e.tr = newTracer()
		if o.traceOut == "" {
			o.traceOut = filepath.Join(build, "trace.json")
		}
	}

	doc := report{Meta: meta(o, sp)}
	rounds := 1
	if o.aa {
		rounds = 2
	}
	sets := make([]map[string]*result, rounds)
	var lastLine []byte
	ok := true
	for round := range sets {
		sets[round] = map[string]*result{}
		for _, name := range names {
			res := runOne(ctx, e, name, o.trace == 1)
			sets[round][name] = res
			ok = ok && res.failed == 0
			lastLine = printResult(stdout, sp, res, o.trace == 1)
			if len(names) > 1 {
				fmt.Fprintf(stdout, "%s\n", lastLine)
			}
			doc.add(sp, res, round)
		}
	}
	if e.tr != nil {
		if err := e.tr.write(o.traceOut, map[string]any{"seed": o.seed, "workloads": names, "scale": o.scale}); err != nil {
			return err
		}
		e.logf("pintbench: wrote %s", o.traceOut)
	}
	if o.aa {
		ok = compareAA(stdout, sp, names, sets[0], sets[1], &doc) && ok
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(names) > 1 {
		// With several workloads the closing line summarises them all;
		// each workload's own line was printed above.
		lastLine = summaryLine(names, sets[rounds-1])
	}
	fmt.Fprintf(stdout, "%s\n", lastLine)
	if !ok {
		return errIncorrect
	}
	return nil
}

// buildPintd compiles cmd/pintd from the checkout's sources into the
// build directory and returns the binary and how long the build took.
func buildPintd(ctx context.Context, root, build string) (string, float64, error) {
	bin := filepath.Join(build, "bin", "pintd")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pintd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pintd: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// runOne runs one workload under its own deadline. A failure to finish —
// an error, or the deadline killing the children — is reported as a
// failed workload, never as a hang or a crash of the whole set.
func runOne(ctx context.Context, e *env, name string, traced bool) *result {
	p, err := e.spec.sizes(name, e.scale)
	if err != nil {
		r := newResult(name)
		r.ops(1)
		r.fail(1, "%v", err)
		return r
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(p.DeadlineS)*time.Second)
	defer cancel()
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	e.logf("pintbench: %s (%s, seed %d, %.0f s, %s scale)", name, mode, e.seed, e.seconds, e.scale)
	var r *result
	if traced {
		r, err = runTraced(ctx, e, name, p)
	} else {
		r, err = runWorkload(ctx, e, name, p)
	}
	if r == nil {
		r = newResult(name)
	}
	if err != nil {
		if r.attempted == 0 {
			r.ops(1)
		}
		r.fail(max(1, r.attempted-r.failed), "workload did not finish: %v", err)
	}
	return r
}

// runWorkload dispatches on the fixed workload names.
func runWorkload(ctx context.Context, e *env, name string, p params) (*result, error) {
	switch name {
	case "ingest-saturate":
		return runIngest(ctx, e, name, p, false)
	case "encode-stream":
		return runIngest(ctx, e, name, p, true)
	case "durable-query":
		return runDurable(ctx, e, name, p)
	case "fleet-resize":
		return runFleet(ctx, e, name, p)
	}
	return nil, fmt.Errorf("no such workload %q", name)
}

// emitted is the driver's closing line.
type emitted struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric the run declares for this workload by
// name with its unit, the sample counts, and any failures; it returns the
// driver's closing line. A declared metric the run did not produce, or
// produced as a non-number, is itself a failure.
func printResult(w io.Writer, sp *spec, r *result, traced bool) []byte {
	decls := sp.bench.EndToEnd
	if traced {
		decls = sp.bench.PerLayer
	}
	out := emitted{Metrics: map[string]metricValue{}}
	row := func(kind string, m metricDecl) {
		v, ok := r.values[m.Name]
		if !ok || !finite(v) {
			r.ops(1)
			r.fail(1, "metric %s was not measured", m.Name)
			v = 0
		}
		fmt.Fprintf(w, "%-16s %-8s %-38s %16.6g %s\n", r.workload, kind, m.Name, v, m.Unit)
		if kind != "scoped" {
			out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	for _, m := range decls {
		kind := "gated"
		if traced {
			kind = "layer"
		}
		row(kind, m)
	}
	if !traced {
		for _, d := range sp.detailFor(r.workload) {
			row("scoped", d.metricDecl)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-16s note     %s\n", r.workload, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "%-16s FAILED   %s\n", r.workload, f)
	}
	out.Correct, out.Attempted, out.Failed = r.failed == 0, max(1, r.attempted), r.failed
	line, _ := json.Marshal(out)
	return line
}

// summaryLine closes a several-workload run: the same four keys, with
// each metric prefixed by its workload so none collide.
func summaryLine(names []string, set map[string]*result) []byte {
	out := emitted{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		r := set[name]
		out.Correct = out.Correct && r.failed == 0
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.Metrics[name+".fail_share"] = metricValue{Value: r.failShare(), Unit: "share"}
	}
	out.Attempted = max(1, out.Attempted)
	line, _ := json.Marshal(out)
	return line
}

// report is the -out document: everything printed, keyed for machines.
type report struct {
	Meta      map[string]any          `json:"meta"`
	Workloads map[string][]roundEntry `json:"workloads"` // one entry per round (-aa makes two)
	AA        []aaRow                 `json:"aa,omitempty"`
}

type roundEntry struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Gated     map[string]metricValue `json:"end_to_end,omitempty"`
	Scoped    map[string]metricValue `json:"detail,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
}

func meta(o options, sp *spec) map[string]any {
	return map[string]any{
		"seed":        o.seed,
		"seconds":     o.seconds,
		"scale":       o.scale,
		"traced":      o.trace == 1,
		"host":        sp.work.Host,
		"network":     "host loopback only",
		"cpus":        runtime.NumCPU(),
		"max_senders": sp.work.MaxSenders,
		"go":          runtime.Version(),
	}
}

func (d *report) add(sp *spec, r *result, round int) {
	if d.Workloads == nil {
		d.Workloads = map[string][]roundEntry{}
	}
	re := roundEntry{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Notes: r.notes, Failures: r.failures}
	pick := func(decls []metricDecl) map[string]metricValue {
		out := map[string]metricValue{}
		for _, m := range decls {
			if v, ok := r.values[m.Name]; ok && finite(v) {
				out[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
		}
		return out
	}
	re.Gated = pick(sp.bench.EndToEnd)
	re.PerLayer = pick(sp.bench.PerLayer)
	var scoped []metricDecl
	for _, dd := range sp.detailFor(r.workload) {
		scoped = append(scoped, dd.metricDecl)
	}
	re.Scoped = pick(scoped)
	d.Workloads[r.workload] = append(d.Workloads[r.workload], re)
}

// aaRow is one metric's A/A comparison.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Gated    bool    `json:"gated"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// compareAA prints each metric's relative difference between two runs of
// the same code beside its bound. Only the gated metrics decide the
// result; the workload-scoped ones are shown against their own bounds so
// a reader sees which of them this host can resolve today.
func compareAA(w io.Writer, sp *spec, names []string, a, b map[string]*result, doc *report) bool {
	all := true
	fmt.Fprintf(w, "\nA/A: two runs of the same code; |relative difference| beside the bound\n")
	for _, name := range names {
		row := func(m metricDecl, floor float64, gated bool) {
			va, vb := a[name].values[m.Name], b[name].values[m.Name]
			diff := math.Abs(relWorse(va, vb, m.Better))
			within := diff <= m.Bound || math.Abs(va-vb) <= floor
			verdict := "ok"
			switch {
			case within:
			case gated:
				verdict, all = "EXCEEDS", false
			default:
				verdict = "over (not gated)"
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g  diff %7.2f%%  bound %6.2f%%  %s\n",
				name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
			doc.AA = append(doc.AA, aaRow{name, m.Name, gated, va, vb, diff, m.Bound, within})
		}
		for _, m := range sp.bench.EndToEnd {
			row(m, 0, true)
		}
		for _, d := range sp.detailFor(name) {
			if d.Name != "fail_share" { // must stay 0: the runs' own exit status enforces it
				row(d.metricDecl, d.Floor, false)
			}
		}
	}
	return all
}
