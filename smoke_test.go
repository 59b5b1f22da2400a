package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSmokeBinariesAndExamples build-and-runs every command and example
// main so CI catches bit-rot in the untested binaries: each subtest `go
// run`s the package with fast arguments and checks for a marker string
// the program prints on a healthy run. The examples are deterministic and
// must print their committed want.txt byte for byte; pintplan must print
// the same bytes twice (nothing in a plan may follow map order).
func TestSmokeBinariesAndExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests exec the go tool; skipped in -short")
	}
	cases := []struct {
		name   string
		args   []string
		marker string
		twice  bool // a second run must print the same bytes
	}{
		{name: "pintplan", args: []string{"./cmd/pintplan", "-budget", "16"}, marker: "pipeline:", twice: true},
		{name: "pintfig-list", args: []string{"./cmd/pintfig", "-list"}, marker: "Scenario catalog"},
		{name: "pintfig-quick", args: []string{"./cmd/pintfig", "-scale", "quick", "-run", "fig5"}, marker: "Fig 5"},
		{name: "pintfig-parallel-json", args: []string{"./cmd/pintfig", "-scale", "quick",
			"-run", "route-change,pathtrace", "-parallel", "4", "-json"}, marker: "\"scenario\": \"route-change\""},
		{name: "pinttrace", args: []string{"./cmd/pinttrace", "-topo", "fattree", "-len", "5",
			"-trials", "20", "-parallel", "2", "-baselines=false"}, marker: "PINT"},
		{name: "example-quickstart", args: []string{"./examples/quickstart"}},
		{name: "example-pathtracing", args: []string{"./examples/pathtracing"}},
		{name: "example-latency", args: []string{"./examples/latency"}},
		{name: "example-loopdetect", args: []string{"./examples/loopdetect"}},
		{name: "example-congestion", args: []string{"./examples/congestion"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			run := func() []byte {
				out, err := exec.CommandContext(ctx, "go", append([]string{"run"}, tc.args...)...).CombinedOutput()
				if err != nil {
					t.Fatalf("go run %s: %v\n%s", strings.Join(tc.args, " "), err, out)
				}
				return out
			}
			out := run()
			if len(out) == 0 {
				t.Fatalf("go run %s printed nothing", strings.Join(tc.args, " "))
			}
			if !strings.Contains(string(out), tc.marker) {
				t.Fatalf("go run %s output lacks %q:\n%s", strings.Join(tc.args, " "), tc.marker, out)
			}
			if strings.HasPrefix(tc.args[0], "./examples/") {
				want, err := os.ReadFile(filepath.Join(tc.args[0], "want.txt"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatalf("go run %s differs from its want.txt; got:\n%s", tc.args[0], out)
				}
			}
			if tc.twice {
				if again := run(); !bytes.Equal(out, again) {
					t.Fatalf("go run %s printed different bytes on a second run:\n%s\n---\n%s", strings.Join(tc.args, " "), out, again)
				}
			}
		})
	}
}

// TestSmokePintfigUnknownScenario pins the CLI contract for a mistyped
// scenario name: non-zero exit and a near-miss suggestion.
func TestSmokePintfigUnknownScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests exec the go tool; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "run", "./cmd/pintfig", "-run", "ablaton-lnc").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown scenario exited 0:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
		t.Fatalf("want a non-zero exit code, got %v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "did you mean") || !strings.Contains(string(out), "ablation-lnc") {
		t.Fatalf("miss output lacks a suggestion:\n%s", out)
	}
}

// daemonProc wraps a started daemon whose stdout is scraped line by line
// for announced addresses.
type daemonProc struct {
	cmd     *exec.Cmd
	scanner *bufio.Scanner
	lines   []string
}

func startDaemon(t *testing.T, ctx context.Context, bin string, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	return &daemonProc{cmd: cmd, scanner: bufio.NewScanner(stdout)}
}

// scrape reads stdout until a line contains marker and returns the first
// space-delimited token after it.
func (d *daemonProc) scrape(t *testing.T, marker string) string {
	t.Helper()
	for d.scanner.Scan() {
		line := d.scanner.Text()
		d.lines = append(d.lines, line)
		if _, rest, ok := strings.Cut(line, marker); ok {
			token, _, _ := strings.Cut(rest, " ")
			return strings.TrimSuffix(token, ",")
		}
	}
	t.Fatalf("daemon never printed %q:\n%s", marker, strings.Join(d.lines, "\n"))
	return ""
}

// scrapeLine reads stdout until a line contains marker and returns the
// whole line (scrape returns only the token after the marker).
func (d *daemonProc) scrapeLine(t *testing.T, marker string) string {
	t.Helper()
	for d.scanner.Scan() {
		line := d.scanner.Text()
		d.lines = append(d.lines, line)
		if strings.Contains(line, marker) {
			return line
		}
	}
	t.Fatalf("daemon never printed %q:\n%s", marker, strings.Join(d.lines, "\n"))
	return ""
}

// drainOutput reads the rest of stdout (call after signalling).
func (d *daemonProc) drainOutput() string {
	for d.scanner.Scan() {
		d.lines = append(d.lines, d.scanner.Text())
	}
	return strings.Join(d.lines, "\n")
}

// TestSmokeFederatedDrain runs the full federated tier as real binaries:
// two pintd fleet members under one epoch, described once by a fleet-map
// file; pintgate -fleetmap fronting them, and pintload -gate fetching the
// same map from the gate and routing flows to their homes across both
// daemons. It demands: a complete merged snapshot from the gate, an
// explicit partial result (header + named node) after one member is
// SIGTERMed, packet conservation across both drains, and clean exits all
// around.
func TestSmokeFederatedDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests exec the go tool; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := t.TempDir()
	for _, cmd := range []string{"pintd", "pintload", "pintgate"} {
		out, err := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}

	const (
		exporters = 2
		flows     = 4
		pkts      = 300
		epoch     = "9"
	)
	total := exporters * flows * pkts

	var daemons [2]*daemonProc
	var tcpAddrs, httpAddrs [2]string
	for i := range daemons {
		daemons[i] = startDaemon(t, ctx, filepath.Join(bin, "pintd"),
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-shards", "2", "-epoch", epoch)
		tcpAddrs[i] = daemons[i].scrape(t, "listening on ")
		httpAddrs[i] = daemons[i].scrape(t, "http on ")
	}
	mapFile := filepath.Join(bin, "fleet.json")
	fleetMap := fmt.Sprintf(`{"epoch": %s, "members": [
		{"name": "pintd-0", "ingest": %q, "query": %q},
		{"name": "pintd-1", "ingest": %q, "query": %q}]}`,
		epoch, tcpAddrs[0], "http://"+httpAddrs[0], tcpAddrs[1], "http://"+httpAddrs[1])
	if err := os.WriteFile(mapFile, []byte(fleetMap), 0o644); err != nil {
		t.Fatal(err)
	}
	gate := startDaemon(t, ctx, filepath.Join(bin, "pintgate"),
		"-http", "127.0.0.1:0", "-fleetmap", mapFile)
	gateURL := "http://" + gate.scrape(t, "serving on ")

	load, err := exec.CommandContext(ctx, filepath.Join(bin, "pintload"),
		"-gate", gateURL,
		"-exporters", fmt.Sprint(exporters), "-flows", fmt.Sprint(flows), "-pkts", fmt.Sprint(pkts),
	).CombinedOutput()
	if err != nil {
		t.Fatalf("pintload: %v\n%s", err, load)
	}
	if want := fmt.Sprintf("sent %d packets", total); !strings.Contains(string(load), want) {
		t.Fatalf("pintload report lacks %q:\n%s", want, load)
	}

	// The merged snapshot through the gate: poll until the fleet has
	// ingested everything (collectors flush at session end), then demand
	// a complete, non-partial answer covering every flow.
	client := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(gateURL + "/stats")
		if err != nil {
			t.Fatalf("gate stats: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), fmt.Sprintf(`"packets": %d`, total)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never ingested %d packets:\n%s", total, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, err := client.Get(gateURL + "/snapshot")
	if err != nil {
		t.Fatalf("gate snapshot: %v", err)
	}
	snapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Pint-Partial") != "" {
		t.Fatalf("healthy fleet answered partial:\n%s", snapBody)
	}
	if got := strings.Count(string(snapBody), `"flow":`); got != exporters*flows {
		t.Fatalf("merged snapshot has %d flows, want %d:\n%.600s", got, exporters*flows, snapBody)
	}

	// Kill member 1: the gate must degrade explicitly, naming the node.
	if err := daemons[1].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out1 := daemons[1].drainOutput()
	if err := daemons[1].cmd.Wait(); err != nil {
		t.Fatalf("pintd[1] exited non-zero after SIGTERM: %v\n%s", err, out1)
	}
	resp, err = client.Get(gateURL + "/snapshot")
	if err != nil {
		t.Fatalf("gate snapshot after kill: %v", err)
	}
	partialBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Pint-Partial") != "1" {
		t.Fatalf("dead member not marked partial (header %q):\n%s",
			resp.Header.Get("X-Pint-Partial"), partialBody)
	}
	if !strings.Contains(string(partialBody), httpAddrs[1]) || !strings.Contains(string(partialBody), `"errors"`) {
		t.Fatalf("partial result does not name the dead node %s:\n%.600s", httpAddrs[1], partialBody)
	}

	// Drain the rest; packet conservation across the fleet.
	if err := daemons[0].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out0 := daemons[0].drainOutput()
	if err := daemons[0].cmd.Wait(); err != nil {
		t.Fatalf("pintd[0] exited non-zero after SIGTERM: %v\n%s", err, out0)
	}
	drained := 0
	for _, out := range []string{out0, out1} {
		var n int
		if _, rest, ok := strings.Cut(out, "drained: "); ok {
			fmt.Sscanf(rest, "%d packets", &n)
		}
		drained += n
	}
	if drained != total {
		t.Fatalf("fleet drained %d packets, want %d\n--- pintd[0]\n%s\n--- pintd[1]\n%s", drained, total, out0, out1)
	}

	if err := gate.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	gateOut := gate.drainOutput()
	if err := gate.cmd.Wait(); err != nil {
		t.Fatalf("pintgate exited non-zero after SIGTERM: %v\n%s", err, gateOut)
	}
	if !strings.Contains(gateOut, "pintgate: drained") {
		t.Fatalf("pintgate drain report missing:\n%s", gateOut)
	}
}

// TestSmokeKillRecover is the binary-level half of the kill-recover
// torture suite (the scenario registry holds the in-process half): a real
// pintd with -data-dir takes a full pintload deployment, is SIGKILLed —
// no drain, no final checkpoint — and a restarted daemon on the same
// directory must replay every flushed packet, serve the same flows, take
// a second deployment, shut down cleanly, and replay the union on a third
// start. Packet conservation is checked at every hop.
func TestSmokeKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests exec the go tool; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := t.TempDir()
	for _, cmd := range []string{"pintd", "pintload"} {
		out, err := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	dataDir := t.TempDir()

	const (
		exporters = 2
		flows     = 3
		pkts      = 400
	)
	total := exporters * flows * pkts
	client := &http.Client{Timeout: 10 * time.Second}

	start := func() *daemonProc {
		return startDaemon(t, ctx, filepath.Join(bin, "pintd"),
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-shards", "2", "-data-dir", dataDir, "-checkpoint", "50ms")
	}
	// recovered reports the replayed packet count a daemon announced at
	// startup (the line prints before "listening on").
	recovered := func(d *daemonProc) int {
		line := d.scrapeLine(t, "recovered:")
		var segs, blocks, replayed int
		if _, err := fmt.Sscanf(line, "pintd: recovered: %d segments, %d blocks, %d packets replayed",
			&segs, &blocks, &replayed); err != nil {
			t.Fatalf("unparseable recovery line %q: %v", line, err)
		}
		return replayed
	}
	// durablePackets polls /stats until the segment log holds want packets
	// — the flush point after which a SIGKILL loses nothing.
	durablePackets := func(httpAddr string, want int) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			var doc struct {
				Durable struct {
					Store struct {
						Packets int `json:"packets"`
					} `json:"store"`
				} `json:"durable"`
			}
			resp, err := client.Get("http://" + httpAddr + "/stats")
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("stats decode: %v", err)
			}
			if doc.Durable.Store.Packets == want {
				return
			}
			if doc.Durable.Store.Packets > want {
				t.Fatalf("segment log holds %d packets, only %d were ever sent — double count",
					doc.Durable.Store.Packets, want)
			}
			if time.Now().After(deadline) {
				t.Fatalf("segment log stuck at %d packets, want %d", doc.Durable.Store.Packets, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	load := func(addr string) {
		t.Helper()
		out, err := exec.CommandContext(ctx, filepath.Join(bin, "pintload"),
			"-addr", addr,
			"-exporters", fmt.Sprint(exporters), "-flows", fmt.Sprint(flows), "-pkts", fmt.Sprint(pkts),
		).CombinedOutput()
		if err != nil {
			t.Fatalf("pintload: %v\n%s", err, out)
		}
		if want := fmt.Sprintf("sent %d packets", total); !strings.Contains(string(out), want) {
			t.Fatalf("pintload report lacks %q:\n%s", want, out)
		}
	}

	// Incarnation 1: empty directory, one deployment, flushed, SIGKILLed.
	d1 := start()
	if n := recovered(d1); n != 0 {
		t.Fatalf("fresh data dir replayed %d packets", n)
	}
	addr := d1.scrape(t, "listening on ")
	httpAddr := d1.scrape(t, "http on ")
	load(addr)
	durablePackets(httpAddr, total)
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	d1.drainOutput()
	d1.cmd.Wait() // non-zero by design; reap it

	// Incarnation 2: must replay the full deployment before serving, then
	// answer with the same flows and survive a second deployment.
	d2 := start()
	if n := recovered(d2); n != total {
		t.Fatalf("after SIGKILL: replayed %d packets, want %d", n, total)
	}
	addr = d2.scrape(t, "listening on ")
	httpAddr = d2.scrape(t, "http on ")
	resp, err := client.Get("http://" + httpAddr + "/snapshot")
	if err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(snap), `"flow":`); got != exporters*flows {
		t.Fatalf("recovered snapshot has %d flows, want %d:\n%.600s", got, exporters*flows, snap)
	}
	load(addr)
	durablePackets(httpAddr, 2*total)
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out2 := d2.drainOutput()
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("pintd exited non-zero after SIGTERM: %v\n%s", err, out2)
	}
	if want := fmt.Sprintf("drained: %d packets", total); !strings.Contains(out2, want) {
		t.Fatalf("second incarnation drain report lacks %q:\n%s", want, out2)
	}

	// Incarnation 3: the union of both deployments replays after a clean
	// shutdown — nothing was lost, nothing double-counted.
	d3 := start()
	if n := recovered(d3); n != 2*total {
		t.Fatalf("final restart replayed %d packets, want %d", n, 2*total)
	}
	d3.scrape(t, "listening on ")
	if err := d3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out3 := d3.drainOutput()
	if err := d3.cmd.Wait(); err != nil {
		t.Fatalf("pintd exited non-zero after final SIGTERM: %v\n%s", err, out3)
	}
}

// TestSmokePintdSigtermDrain runs the real daemon binaries end to end:
// build pintd and pintload, stream a deployment over loopback TCP, send
// the daemon SIGTERM, and demand a clean drain — exit code 0 and a final
// packet count matching exactly what pintload sent.
func TestSmokePintdSigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests exec the go tool; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin := t.TempDir()
	for _, cmd := range []string{"pintd", "pintload"} {
		out, err := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}

	const (
		exporters = 3
		flows     = 4
		pkts      = 500
	)
	daemon := startDaemon(t, ctx, filepath.Join(bin, "pintd"),
		"-listen", "127.0.0.1:0", "-http", "", "-shards", "4")
	addr := daemon.scrape(t, "listening on ")

	load, err := exec.CommandContext(ctx, filepath.Join(bin, "pintload"),
		"-addr", addr,
		"-exporters", fmt.Sprint(exporters), "-flows", fmt.Sprint(flows), "-pkts", fmt.Sprint(pkts),
	).CombinedOutput()
	if err != nil {
		t.Fatalf("pintload: %v\n%s", err, load)
	}
	want := fmt.Sprintf("sent %d packets", exporters*flows*pkts)
	if !strings.Contains(string(load), want) || !strings.Contains(string(load), "pkts/s") {
		t.Fatalf("pintload report lacks %q:\n%s", want, load)
	}

	if err := daemon.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out := daemon.drainOutput()
	if err := daemon.cmd.Wait(); err != nil {
		t.Fatalf("pintd exited non-zero after SIGTERM: %v\n%s", err, out)
	}
	drained := fmt.Sprintf("drained: %d packets", exporters*flows*pkts)
	tracked := fmt.Sprintf("%d flows tracked", exporters*flows)
	if !strings.Contains(out, drained) || !strings.Contains(out, tracked) || !strings.Contains(out, "0 conn errors") {
		t.Fatalf("pintd drain report lacks %q / %q:\n%s", drained, tracked, out)
	}
}
