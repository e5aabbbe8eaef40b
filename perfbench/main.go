// Command perfbench is the repository's end-to-end benchmark. One process
// drives one seeded workload through the public entry points users call:
//
//   - paper:    repeated E1 suite passes through core.RunSuiteContext;
//   - campaign: 64-run fault campaigns through core.RunDataCampaignBatch
//     and core.RunTimingCampaignBatch;
//   - serve:    HTTP jobs and batches sent to an in-process fleet
//     coordinator fronting two service workers over loopback.
//
// With -trace 0 it measures untraced and prints the end-to-end metrics.
// With -trace 1 it alternates untraced and traced operations over the
// window, prints the per-layer metrics from the traced ones and the
// tracing overhead, and writes the spans as Chrome trace-event JSON.
// Output checks run after the timed window; a mismatch or a refused
// request counts as a failed operation. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupProbes is how many fresh processes, beside the measuring one, set
// up the workload once each; setup_s is the median of their samples.
const setupProbes = 4

// processStart is taken when the main package initialises, after the Go
// runtime and every imported package. Set-up CPU time needs no start
// mark: the process's CPU time counts from its start.
var processStart = time.Now()

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	outDir   string
	// setupProbe makes the run set up once, print its setupSample and
	// exit.
	setupProbe bool

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string

	// gate holds the driver-facing end-to-end metrics (the same three on
	// every workload); named holds the workload's own end-to-end metrics
	// under their descriptive names; layer the per-layer metrics from the
	// traced operations; sim the simulated counts a simulator-only change
	// must leave identical.
	gate  map[string]metric
	named []metric
	layer map[string]metric
	sim   []metric
	notes []string
}

// fail counts one failed operation and keeps the first few reasons.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) setGate(name string, v float64, unit string) {
	b.gate[name] = metric{Name: name, Value: v, Unit: unit}
}

func (b *bench) addNamed(name string, v float64, unit, note string) {
	b.named = append(b.named, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metric{Name: name, Value: v, Unit: unit}
}

func (b *bench) addSim(name string, v int64) {
	b.sim = append(b.sim, metric{Name: name, Value: float64(v), Unit: "count"})
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// gateMetrics are the end-to-end metrics every workload reports; the
// per-workload meaning of each is in README.md. Times are process CPU
// time: on a shared virtual machine the hypervisor's steal time moves
// wall-clock numbers by half or more between runs, and it is not charged
// to the process.
var gateMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer the workload never calls reads 0, with a base of 0.
var layerMetrics = []struct{ name, unit string }{
	{"fabric.tia_ns_per_cycle", "ns"},
	{"fabric.pc_ns_per_cycle", "ns"},
	{"fabric.ns_per_fire", "ns"},
	{"workloads.build_us", "us"},
	{"workloads.build_tia_us", "us"},
	{"workloads.reference_us", "us"},
	{"gpp.run_us", "us"},
	{"compile.plan_hit_ratio", "ratio"},
	{"compile.plan_lookups", "count"},
	{"campaign.golden_ms", "ms"},
	{"faults.arm_us", "us"},
	{"batchrun.step_ms", "ms"},
	{"batchrun.ns_per_cycle", "ns"},
	{"campaign.hang_cycle_share", "ratio"},
	{"campaign.faulty_cycles", "count"},
	{"asm.check_us", "us"},
	{"asm.build_us", "us"},
	{"asm.fingerprint_us", "us"},
	{"fleet.self_ms", "ms"},
	{"fleet.worker_calls_per_job", "ratio"},
	{"fleet.jobs", "count"},
	{"fleet.affinity_hit_ratio", "ratio"},
	{"fleet.jobs_routed", "count"},
	{"service.handler_ms", "ms"},
	{"service.sim_share", "ratio"},
	{"service.handler_total_ms", "ms"},
	{"service.result_hit_ratio", "ratio"},
	{"service.result_lookups", "count"},
	{"service.program_hit_ratio", "ratio"},
	{"service.program_lookups", "count"},
	{"service.busy_rejects", "count"},
	{"sim.cycles", "count"},
	{"sim.fires", "count"},
	{"trace.overhead_pct", "%"},
}

var workloadRunners = map[string]func(*bench) error{
	"paper":    runPaper,
	"campaign": runCampaign,
	"serve":    runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper, campaign or serve")
	seed := flag.Int64("seed", 1, "workload seed; the program under test sees only inputs generated from it")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 alternates untraced and traced operations and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the full report and the trace")
	setupProbe := flag.Bool("setup-probe", false, "set up once, print the set-up sample as JSON and exit (used by the measuring run)")
	flag.Parse()

	run := workloadRunners[*workload]
	if run == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|campaign|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload:   *workload,
		seed:       *seed,
		window:     time.Duration(*seconds) * time.Second,
		traced:     *traceFlag == 1,
		outDir:     *outDir,
		setupProbe: *setupProbe,
		gate:       map[string]metric{},
		layer:      map[string]metric{},
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env := environment()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, *seconds, *traceFlag)
	fmt.Printf("env go=%s GOMAXPROCS=%d nproc=%d commit=%s\n", env["go"], runtime.GOMAXPROCS(0), runtime.NumCPU(), env["commit"])
	err := run(b)
	if errors.Is(err, errSetupProbed) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if err := b.report(env); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// environment records where the numbers came from.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	return env
}

// report prints the human-readable lines, writes the full report file and
// prints the driver's JSON line last.
func (b *bench) report(env map[string]string) error {
	correct := b.failed.Load() == 0
	for _, m := range b.named {
		fmt.Printf("e2e   %-28s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, g := range gateMetrics {
		m, ok := b.gate[g.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", b.workload, g.name)
		}
		fmt.Printf("gate  %-28s %14.4f %-6s\n", m.Name, m.Value, m.Unit)
	}
	if b.traced {
		for _, l := range layerMetrics {
			m, ok := b.layer[l.name]
			if !ok {
				m = metric{Name: l.name, Unit: l.unit}
				b.layer[l.name] = m
			}
			fmt.Printf("layer %-28s %14.4f %-6s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, m := range b.sim {
		fmt.Printf("sim   %-28s %14.0f\n", m.Name, m.Value)
	}
	fmt.Printf("model %s\n", modelNote)
	for _, n := range b.notes {
		fmt.Printf("note  %s\n", n)
	}
	for _, f := range b.failures {
		fmt.Printf("FAIL  %s\n", f)
	}
	fmt.Printf("ops   attempted=%d failed=%d correct=%v\n", b.attempted.Load(), b.failed.Load(), correct)

	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]out{}
	if b.traced {
		for _, l := range layerMetrics {
			m := b.layer[l.name]
			metrics[l.name] = out{m.Value, m.Unit}
		}
	} else {
		for _, g := range gateMetrics {
			m := b.gate[g.name]
			metrics[g.name] = out{m.Value, m.Unit}
		}
	}

	full := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.window.Seconds(), "trace": b.traced,
		"environment": env, "model": modelNote,
		"gate": sortedMetrics(b.gate), "end_to_end": b.named, "per_layer": sortedMetrics(b.layer),
		"simulated": b.sim, "notes": b.notes, "failures": b.failures,
		"attempted": b.attempted.Load(), "failed": b.failed.Load(), "correct": correct,
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", b.workload, b.seed, map[bool]int{false: 0, true: 1}[b.traced])
	if err := writeJSONFile(filepath.Join(b.outDir, name), full); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.attempted.Load(), "failed": b.failed.Load(), "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// modelNote states what the simulated numbers are and are not.
const modelNote = "Simulated cycles come from an unvalidated cycle model: it has not been " +
	"checked against hardware. Its only calibration is to the paper's headline " +
	"numbers (EXPERIMENTS.md): 2.02X geomean speedup against the paper's 2.0X, " +
	"and 8.1X area-normalised against the paper's 8X."

func sortedMetrics(m map[string]metric) []metric {
	out := make([]metric, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupSample is one process's cold set-up: process CPU time from the
// process's start to the environment being up (ReadyCPU) and to the end
// of the warm-up operation (CPU), and the wall time from main's package
// initialisation to the end.
type setupSample struct {
	ReadyCPU float64 `json:"ready_cpu_s"`
	CPU      float64 `json:"cpu_s"`
	Wall     float64 `json:"wall_s"`
}

// errSetupProbed ends a --setup-probe process once it has printed its
// sample.
var errSetupProbed = errors.New("set-up probe done")

// measureSetup sets up once, in a process that has run nothing of the
// workload before, so lazy initialisation is paid here. setup calls ready
// once the environment is up, before its warm-up operation. setup_s is
// the median over this process and setupProbes fresh ones, each started
// with --setup-probe to set up, print its sample and exit.
func measureSetup[E any](b *bench, setup func(ready func()) (E, func(), error)) (E, error) {
	var s setupSample
	env, cleanup, err := setup(func() { s.ReadyCPU = cpuTime().Seconds() })
	if err != nil {
		return env, fmt.Errorf("setup: %w", err)
	}
	s.CPU, s.Wall = cpuTime().Seconds(), time.Since(processStart).Seconds()
	if b.setupProbe {
		cleanup()
		line, err := json.Marshal(s)
		if err != nil {
			return env, err
		}
		fmt.Println(string(line))
		return env, errSetupProbed
	}
	samples := []setupSample{s}
	for i := 0; i < setupProbes; i++ {
		p, err := b.probeSetup()
		if err != nil {
			cleanup()
			return env, fmt.Errorf("setup probe: %w", err)
		}
		samples = append(samples, p)
	}
	var cpu, ready, warm, wall []float64
	for _, p := range samples {
		cpu = append(cpu, p.CPU)
		ready = append(ready, p.ReadyCPU)
		warm = append(warm, p.CPU-p.ReadyCPU)
		wall = append(wall, p.Wall)
	}
	n := len(samples)
	b.setGate("setup_s", median(cpu), "s")
	b.addNamed("setup_s", median(cpu), "s", fmt.Sprintf("process CPU from process start to the end of set-up, median of %d processes", n))
	b.addNamed("setup_ready_s", median(ready), "s", "of which to the environment being up")
	b.addNamed("setup_warmup_s", median(warm), "s", "of which the cold warm-up operation")
	b.addNamed("setup_wall_s", median(wall), "s", fmt.Sprintf("wall time, median of %d processes", n))
	return env, nil
}

// probeSetup runs this program with --setup-probe and reads its sample.
func (b *bench) probeSetup() (setupSample, error) {
	var s setupSample
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", b.workload, "--seed", strconv.FormatInt(b.seed, 10),
		"--out", b.outDir, "--setup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err = json.Unmarshal([]byte(lines[len(lines)-1]), &s)
	return s, err
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerOp records the process CPU time spent per operation.
func (b *bench) cpuPerOp(cpu time.Duration, ops float64, what string) {
	v := ratio(ms(cpu), ops)
	b.setGate("cpu_ms_per_op", v, "ms")
	b.addNamed("cpu_ms_per_op", v, "ms", "process CPU per "+what)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// recordRSS sets the peak_rss_mb gate metric.
func (b *bench) recordRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.setGate("peak_rss_mb", mb, "MB")
	b.addNamed("peak_rss_mb", mb, "MB", "VmHWM after the timed window")
	return nil
}

// latencyMetrics records a latency distribution as <prefix>_p50_ms and,
// when it holds at least ten samples beyond the 99th percentile,
// <prefix>_p99_ms. With fewer samples it reports the highest percentile
// that has ten beyond it, and says so. It returns the p50.
func (b *bench) latencyMetrics(prefix string, ms []float64, withP99 bool) float64 {
	p50 := quantile(ms, 0.5)
	b.addNamed(prefix+"_p50_ms", p50, "ms", fmt.Sprintf("n=%d", len(ms)))
	if withP99 {
		q, label := tailQuantile(len(ms))
		b.addNamed(prefix+"_p99_ms", quantile(ms, q), "ms", fmt.Sprintf("n=%d %s", len(ms), label))
	}
	return p50
}

// tailQuantile is 0.99 when n leaves ten samples beyond it, else the
// highest quantile that does.
func tailQuantile(n int) (float64, string) {
	if n >= 1000 {
		return 0.99, "p99"
	}
	if n <= 10 {
		return 0.5, "too few samples for a tail: reporting p50"
	}
	q := 1 - 10/float64(n)
	return q, fmt.Sprintf("too few samples for p99: reporting p%.1f", 100*q)
}

// quantile is the linearly interpolated q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, 0 when den is 0 (a layer that never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overheadPct is the traced-minus-untraced difference as a share of the
// untraced value.
func (b *bench) overheadPct(what string, untraced, traced float64) {
	pct := ratio(traced-untraced, untraced) * 100
	b.setLayer("trace.overhead_pct", pct, "%")
	b.note("tracing overhead on %s: untraced %.4f, traced %.4f (%+.2f%%)", what, untraced, traced, pct)
}

// writeTrace writes the traced spans as Chrome trace-event JSON.
func (b *bench) writeTrace(spans []Span) error {
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", b.outDir, b.workload, b.seed)
	if err := WriteChrome(path, spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b.note("trace: %d spans written to %s", len(spans), path)
	return nil
}
