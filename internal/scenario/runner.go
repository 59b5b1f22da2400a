package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Options configures one Runner invocation.
type Options struct {
	// Scale is validated up front (see Scale.Validate), so a bad knob
	// fails loudly for every scenario.
	Scale Scale
	// Parallel is the trial worker-pool size; values < 1 mean 1. Results
	// are bit-identical for any value: trials are hermetic, outputs land
	// at their plan index, and reduction is serial.
	Parallel int
}

// MaxParallel bounds Options.Parallel: a larger pool is almost certainly
// a typo.
const MaxParallel = 256

func (o Options) validate() error {
	if err := o.Scale.Validate(); err != nil {
		return err
	}
	if o.Parallel > MaxParallel {
		return fmt.Errorf("scenario: Parallel %d above %d", o.Parallel, MaxParallel)
	}
	return nil
}

// Run plans, executes, and reduces one scenario.
func Run(sc *Scenario, opts Options) (*Result, error) {
	results, err := RunMany([]*Scenario{sc}, opts)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunMany executes several scenarios over one shared worker pool: every
// scenario is planned first, the union of trials drains through the pool
// (so a wide scenario keeps workers busy while a narrow one finishes),
// and each scenario reduces once its own trials are done. Results are in
// scenario order and bit-identical to running each scenario alone.
func RunMany(scs []*Scenario, opts Options) ([]*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	type job struct {
		sc    int // scenario index
		trial int // trial index within the scenario
	}
	plans := make([][]Trial, len(scs))
	var jobs []job
	for i, sc := range scs {
		trials, err := sc.Plan(opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: plan: %w", sc.Name, err)
		}
		if len(trials) == 0 {
			return nil, fmt.Errorf("scenario %q: plan produced no trials", sc.Name)
		}
		plans[i] = trials
		for t := range trials {
			jobs = append(jobs, job{sc: i, trial: t})
		}
	}

	outs := make([][]any, len(scs))
	errs := make([][]error, len(scs))
	for i := range plans {
		outs[i] = make([]any, len(plans[i]))
		errs[i] = make([]error, len(plans[i]))
	}
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(len(jobs)) {
					return
				}
				j := jobs[i]
				outs[j.sc][j.trial], errs[j.sc][j.trial] = plans[j.sc][j.trial].Run()
			}
		}()
	}
	wg.Wait()

	results := make([]*Result, len(scs))
	for i, sc := range scs {
		// Report the lowest-indexed failure so the error, too, is
		// independent of scheduling.
		for t, err := range errs[i] {
			if err != nil {
				return nil, fmt.Errorf("scenario %q: trial %q: %w", sc.Name, plans[i][t].Name, err)
			}
		}
		tables, err := sc.Reduce(opts.Scale, outs[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %q: reduce: %w", sc.Name, err)
		}
		results[i] = &Result{
			Scenario: sc.Name,
			Figure:   sc.Figure,
			Desc:     sc.Desc,
			Trials:   len(plans[i]),
			Tables:   tables,
		}
	}
	return results, nil
}

// RunNames resolves names and runs them over one shared pool, each
// scenario once.
func RunNames(names []string, opts Options) ([]*Result, error) {
	scs, err := resolveNames(names)
	if err != nil {
		return nil, err
	}
	return RunMany(scs, opts)
}

// resolveNames turns a name list into the set of scenarios it mentions,
// in first-mention order; "all" expands, in Names order, to every
// scenario not yet listed.
func resolveNames(names []string) ([]*Scenario, error) {
	var scs []*Scenario
	seen := map[*Scenario]bool{}
	add := func(sc *Scenario) {
		if !seen[sc] {
			seen[sc] = true
			scs = append(scs, sc)
		}
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("scenario: empty name at position %d of %q", i+1, names)
		}
		if name == "all" {
			for _, sc := range All() {
				add(sc)
			}
			continue
		}
		sc, ok := Lookup(name)
		if !ok {
			return nil, unknownNameError(name)
		}
		add(sc)
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("scenario: nothing to run")
	}
	return scs, nil
}
