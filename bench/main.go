// Command bench is the repository's end-to-end benchmark (ISSUE 14): a seeded
// load generator plus in-process deployments, driven over the real /api/v1
// HTTP surface on loopback TCP, with the paper's correctness contract checked
// after every workload. Everything runs in this one OS process. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:])) }

// result is the last line of standard output for a single-workload run: the
// contract's result object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "nominal measured seconds on the reference box; scales the fixed operation counts")
	trace := fs.Int("trace", 0, "1 repeats the run with obs and spans on and reports the per-layer metrics")
	sets := fs.Int("sets", 1, "2 is the repeatability mode: two sets of ten seeded runs per workload, compared against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*sets != 1 && *sets != 2) || (*trace != 0 && *trace != 1) || (*sets == 2 && *trace == 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}

	res := &resources{}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		time.Sleep(exitGrace)
		hardStop(res, "signal")
	}()

	code := run(ctx, res, names, *seed, *seconds, *trace == 1, *sets)
	res.releaseAll()
	if err := res.selfCheck(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// runDeadline is the hard wall-clock limit of one workload run: its context
// expires then, and exitGrace later the process leaves whatever is stuck. The
// benchmark contract allows a run 180 s.
const (
	runDeadline = 170 * time.Second
	exitGrace   = 5 * time.Second
)

// traceDir receives the traced runs' span files (git-ignored).
const traceDir = "bench/out"

// hardStop ends the process when a run overstays its deadline or ignores a
// signal. Servers, listeners and goroutines die with the process (there is
// only this one); the scratch root is removed by hand.
func hardStop(res *resources, why string) {
	fmt.Fprintf(os.Stderr, "bench: %s: forcing exit\n", why)
	res.mu.Lock()
	root := res.root
	res.mu.Unlock()
	if root != "" {
		_ = os.RemoveAll(root)
	}
	os.Exit(3)
}

func environment(seed int64, seconds float64, conns int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"filesystem": filesystemOf("."),
		"seed":       seed,
		"seconds":    seconds,
		"conns":      conns,
		"network":    "loopback only, no injected delay: latency is processor time",
	}
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

func run(ctx context.Context, res *resources, names []string, seed int64, seconds float64, traced bool, sets int) int {
	conns := runtime.NumCPU()
	env := environment(seed, seconds, conns)
	printEnv(env)
	plans := make([]plan, len(names))
	for i, name := range names {
		var err error
		if plans[i], err = planFor(name, seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if sets == 2 {
		return repeatability(ctx, res, plans, seed, conns, env)
	}
	single := len(plans) == 1
	for _, p := range plans {
		cfg := runConfig{plan: p, seed: seed, conns: conns, env: env, setups: setupRepeats}
		// End-to-end numbers always come from an untraced run; a traced
		// repeat of the same size follows when asked for. The contract's
		// single-workload form runs exactly one of the two.
		if !(single && traced) {
			out, err := runOne(ctx, res, cfg)
			if err != nil {
				return fail(err)
			}
			e2e := filled(endToEnd, out.values)
			if single {
				return emit(result{true, out.attempted, out.failed, e2e})
			}
			printRow(p.name, e2e, endToEnd)
		}
		if traced {
			cfg.traced, cfg.setups = true, 1
			out, err := runOne(ctx, res, cfg)
			if err != nil {
				return fail(err)
			}
			layer := filled(perLayer, out.values)
			if single {
				return emit(result{true, out.attempted, out.failed, layer})
			}
			printRow(p.name, layer, perLayer)
		}
	}
	return 0
}

// setRuns is the number of seeded runs in one set of the repeatability mode:
// the benchmark driver's number.
const setRuns = 10

// repeatability is the -sets 2 mode: the driver's acceptance test of the
// benchmark itself, on one build. A set is setRuns runs of every workload,
// each with another seed. For every end-to-end metric on every workload it
// prints both sets' medians and spreads (interquartile range ÷ median), how
// much worse the second median is than the first, and the bound; it fails if
// a spread (setup_s excepted, as in the driver) or a worsening exceeds the
// bound.
func repeatability(ctx context.Context, res *resources, plans []plan, seed int64, conns int, env map[string]any) int {
	var sets [2]map[string]map[string][]float64 // workload → metric → one value per run
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		for _, p := range plans {
			vals := map[string][]float64{}
			for r := 0; r < setRuns; r++ {
				out, err := runOne(ctx, res, runConfig{plan: p, seed: seed + int64(r), conns: conns, env: env, setups: setupRepeats})
				if err != nil {
					return fail(err)
				}
				for _, d := range endToEnd {
					vals[d.Name] = append(vals[d.Name], out.values[d.Name])
				}
			}
			sets[s][p.name] = vals
		}
	}
	code := 0
	fmt.Printf("%-12s %-14s %12s %7s %12s %7s %7s %6s (nproc=%d, %d runs per set)\n",
		"workload", "metric", "median1", "spread1", "median2", "spread2", "worse", "bound", runtime.NumCPU(), setRuns)
	for _, p := range plans {
		for _, d := range endToEnd {
			m1, s1 := medianSpread(sets[0][p.name][d.Name])
			m2, s2 := medianSpread(sets[1][p.name][d.Name])
			worse := (m2 - m1) / m1
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && max(s1, s2) > d.Bound) {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-12s %-14s %12.4f %6.1f%% %12.4f %6.1f%% %+6.1f%% %5.0f%%%s\n",
				p.name, d.Name, m1, s1*100, m2, s2*100, worse*100, d.Bound*100, verdict)
		}
	}
	return code
}

// medianSpread returns the median of xs and the distance between its first
// and third quartiles as a share of the median. The quartiles are those of
// Python's statistics.quantiles(xs, n=4), which the driver uses.
func medianSpread(xs []float64) (median, spread float64) {
	sort.Float64s(xs)
	q := func(i int) float64 {
		j := min(max(i*(len(xs)+1)/4, 1), len(xs)-1)
		delta := float64(i*(len(xs)+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(2), (q(3) - q(1)) / q(2)
}

// runOne runs one workload under the hard deadline, prints its plan and
// releases what it opened.
func runOne(ctx context.Context, res *resources, cfg runConfig) (*outcome, error) {
	p := cfg.plan
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	watchdog := time.AfterFunc(runDeadline+exitGrace, func() { hardStop(res, "deadline") })
	defer watchdog.Stop()
	fmt.Printf("# %s seed=%d traced=%v: tenants=%d build-up=%d sat=%d runs, paced=%d runs at %g/s, incidents=%d d=%d, storms=%d×(%d victims d=%d, %d alerts at %g/s)\n",
		p.name, cfg.seed, cfg.traced, p.tenants, p.tenants*p.earlyPerTenant, p.tenants*p.satPerTenant, p.pacedRuns, p.pacedRate,
		p.incidents, p.d, p.stormWaves, p.stormVictims, p.stormD, p.stormAlerts, p.stormRate)
	start := time.Now()
	out, err := runWorkload(ctx, res, cfg)
	res.releaseAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	fmt.Printf("# %s: %.1fs wall, inputs %016x, samples: commit=%d heal=%d", p.name,
		time.Since(start).Seconds(), out.fingerprint, out.samples["commit_p50_ms"], out.samples["heal_p25_ms"])
	if out.tracePath != "" {
		fmt.Printf(", trace %s", out.tracePath)
	}
	fmt.Println()
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	var ge *gateError
	if errors.As(err, &ge) {
		return 1
	}
	return 4
}

func emit(r result) int {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 4
	}
	fmt.Println(string(b))
	return 0
}

func printEnv(env map[string]any) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("# env:")
	for _, k := range keys {
		fmt.Printf(" %s=%v", k, env[k])
	}
	fmt.Println()
}

func printRow(workload string, got map[string]metric, defs []metricDef) {
	for _, d := range defs {
		m := got[d.Name]
		fmt.Printf("%-12s %-32s %14.4f %s\n", workload, d.Name, m.Value, m.Unit)
	}
}

// filesystemOf names the filesystem type holding path (the WAL's fsync cost
// depends on it); "unknown" where the platform does not say.
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("statfs:0x%x", st.Type)
}
