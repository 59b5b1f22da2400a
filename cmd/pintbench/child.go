package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one pintd child. Its addresses come from the lines it prints
// (-listen/-http 127.0.0.1:0, never a fixed port), its stdout is drained
// for its whole life so it can never block on a full pipe, and the
// workload's context kills it when the per-workload deadline passes.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time
	// listenAfter is start → "listening on" (recovery replay included,
	// since pintd replays before it listens).
	listenAfter time.Duration
	ingest      string
	httpBase    string

	mu    sync.Mutex
	lines []string
	// eof closes when stdout ends, i.e. the process is gone or going.
	eof chan struct{}
}

// startDaemon launches bin with args plus ephemeral listen addresses and
// returns once both addresses are announced.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	args = append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	// If pintbench itself dies, the kernel takes the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	d := &daemon{cmd: cmd, eof: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	type addr struct{ ingest, http string }
	ready := make(chan addr, 1)
	go func() {
		defer close(d.eof)
		var a addr
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if tok, ok := tokenAfter(line, "listening on "); ok {
				a.ingest = tok
				d.listenAfter = time.Since(d.started)
			}
			if tok, ok := tokenAfter(line, "http on "); ok && a.http == "" {
				a.http = tok
				ready <- a
			}
		}
	}()
	select {
	case a := <-ready:
		d.ingest, d.httpBase = a.ingest, "http://"+a.http
		return d, nil
	case <-d.eof:
		cmd.Wait()
		return nil, fmt.Errorf("%s exited before announcing its addresses:\n%s", bin, d.output())
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("%s did not announce its addresses: %w", bin, ctx.Err())
	}
}

// tokenAfter returns the first space-delimited token after marker.
func tokenAfter(line, marker string) (string, bool) {
	_, rest, ok := strings.Cut(line, marker)
	if !ok {
		return "", false
	}
	tok, _, _ := strings.Cut(rest, " ")
	return strings.TrimSuffix(tok, ","), tok != ""
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// drain sends SIGTERM and waits for the daemon's own drain to finish. A
// non-zero exit is an error: a clean drain exits 0.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-d.eof
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("pintd exited uncleanly after SIGTERM: %w\n%s", err, d.output())
	}
	return nil
}

// kill is SIGKILL plus reaping; safe on a process that already exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.eof
	d.cmd.Wait()
}

// peakRSS reads the live child's resident-set high-water mark (VmHWM) in
// bytes. The reaped process's ru_maxrss cannot stand in for it: Go starts
// children with vfork semantics, so the child's ru_maxrss begins at the
// parent's own peak and a large pintbench would report itself.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(raw), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc status")
	}
	line, _, _ := strings.Cut(rest, "\n")
	kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), "kB")), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable VmHWM %q", line)
	}
	return kb << 10, nil
}

// cpuNow reads the live child's CPU time so far, so a timed window can end
// before the process does: the scheduler's per-thread run time, in
// nanoseconds, summed over the process's threads (the tick-counted
// utime/stime in /proc/<pid>/stat would quantise a query's cost to 10 ms).
func (d *daemon) cpuNow() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, fmt.Errorf("unparseable schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unparseable schedstat for task %s: %w", t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU is pintbench's own user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS is pintbench's own peak resident set in bytes.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

// hostCPU reads the host-wide busy and stolen CPU ticks from /proc/stat.
// Stolen time is what the hypervisor gave to someone else while this
// guest wanted to run: the visible part of a noisy neighbour.
func hostCPU() (busy, steal uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unparseable /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0, err
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}
