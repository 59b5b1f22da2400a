package workload

import (
	"math"
	"testing"

	"repro/internal/hash"
)

func TestNewDistValidation(t *testing.T) {
	if _, err := NewDist("x", []CDFPoint{{1000, 1}}); err == nil {
		t.Fatal("single point must fail")
	}
	if _, err := NewDist("x", []CDFPoint{{1000, 0.5}, {900, 1}}); err == nil {
		t.Fatal("non-increasing bytes must fail")
	}
	if _, err := NewDist("x", []CDFPoint{{1000, 0.5}, {2000, 0.4}}); err == nil {
		t.Fatal("non-increasing cum must fail")
	}
	if _, err := NewDist("x", []CDFPoint{{1000, 0.5}, {2000, 0.9}}); err == nil {
		t.Fatal("CDF not ending at 1 must fail")
	}
	if _, err := NewDist("x", []CDFPoint{{-5, 0.5}, {2000, 1}}); err == nil {
		t.Fatal("negative size must fail")
	}
}

func TestWebSearchDeciles(t *testing.T) {
	// Fig 7(b) ticks are the deciles of the distribution.
	d := WebSearch()
	deciles := []float64{7e3, 20e3, 30e3, 50e3, 73e3, 197e3, 989e3, 2e6, 5e6, 30e6}
	for i, want := range deciles {
		u := float64(i+1) / 10
		got := d.Quantile(u)
		if math.Abs(got-want)/want > 0.001 {
			t.Fatalf("web search P%d = %v, want %v", (i+1)*10, got, want)
		}
	}
}

func TestHadoopDeciles(t *testing.T) {
	d := Hadoop()
	deciles := []float64{324, 399, 500, 599, 699, 999, 7e3, 46e3, 120e3, 10e6}
	for i, want := range deciles {
		got := d.Quantile(float64(i+1) / 10)
		if math.Abs(got-want)/want > 0.001 {
			t.Fatalf("hadoop P%d = %v, want %v", (i+1)*10, got, want)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := WebSearch()
	prev := 0.0
	for u := 0.0; u <= 1.0; u += 0.001 {
		q := d.Quantile(u)
		if q < prev {
			t.Fatalf("quantile not monotone at u=%v", u)
		}
		prev = q
	}
}

func TestSampleMatchesDeciles(t *testing.T) {
	d := Hadoop()
	rng := hash.NewRNG(1)
	const n = 200000
	var below699 int
	for i := 0; i < n; i++ {
		if float64(d.Sample(rng)) <= 699 {
			below699++
		}
	}
	got := float64(below699) / n
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("P[size <= median] = %v, want ~0.5", got)
	}
}

func TestMeanBytes(t *testing.T) {
	// Web search mean is dominated by the heavy tail; must be far above
	// the median and far below the max.
	d := WebSearch()
	m := d.MeanBytes()
	if m < 73e3 || m > 30e6 {
		t.Fatalf("web search mean %v outside (median, max)", m)
	}
	// Hadoop is mostly tiny flows: mean far below web search's.
	if h := Hadoop().MeanBytes(); h >= m {
		t.Fatalf("hadoop mean %v >= web search mean %v", h, m)
	}
}

func TestGeneratorValidation(t *testing.T) {
	d := Hadoop()
	rng := hash.NewRNG(1)
	if _, err := NewGenerator([]int{1}, d, 0.5, 1e9, rng); err == nil {
		t.Fatal("single host must fail")
	}
	if _, err := NewGenerator([]int{1, 2}, d, 0, 1e9, rng); err == nil {
		t.Fatal("zero load must fail")
	}
	if _, err := NewGenerator([]int{1, 2}, d, 1.5, 1e9, rng); err == nil {
		t.Fatal("load > 1 must fail")
	}
	if _, err := NewGenerator([]int{1, 2}, d, 0.5, 0, rng); err == nil {
		t.Fatal("zero rate must fail")
	}
}

func TestGeneratorLoadCalibration(t *testing.T) {
	// Generated bytes per second must approximate load × capacity.
	d := Hadoop()
	hosts := make([]int, 16)
	for i := range hosts {
		hosts[i] = i
	}
	const linkBps = 1e9
	const load = 0.5
	g, err := NewGenerator(hosts, d, load, linkBps, hash.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = int64(20e9) // 20 seconds
	flows := g.GenerateUntil(horizon)
	var total float64
	for _, f := range flows {
		total += float64(f.Bytes)
	}
	gotBps := total * 8 / (float64(horizon) / 1e9)
	wantBps := load * 16 * linkBps
	if math.Abs(gotBps-wantBps)/wantBps > 0.15 {
		t.Fatalf("offered load %v bps, want %v (±15%%)", gotBps, wantBps)
	}
}

func TestGeneratorFlowFields(t *testing.T) {
	d := WebSearch()
	hosts := []int{10, 20, 30}
	g, _ := NewGenerator(hosts, d, 0.3, 1e9, hash.NewRNG(3))
	var prev int64 = -1
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		f := g.Next()
		if f.Src == f.Dst {
			t.Fatal("src == dst")
		}
		if f.Start < prev {
			t.Fatal("arrivals not monotone")
		}
		if f.Bytes < 1 {
			t.Fatal("empty flow")
		}
		if seen[f.ID] {
			t.Fatal("duplicate flow ID")
		}
		seen[f.ID] = true
		prev = f.Start
	}
}

func TestGeneratorPoissonSpacing(t *testing.T) {
	d := Hadoop()
	g, _ := NewGenerator([]int{1, 2}, d, 0.5, 1e9, hash.NewRNG(4))
	want := g.interArrival
	const n = 50000
	var last int64
	var sum float64
	for i := 0; i < n; i++ {
		f := g.Next()
		sum += float64(f.Start - last)
		last = f.Start
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("mean spacing %v ns, want %v", got, want)
	}
}
