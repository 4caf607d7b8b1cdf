// Command selfheal-fuzz is the stateful API fuzzer (docs/FUZZING.md): it
// generates randomized attack schedules — workflow submissions, forged
// task commits, IDS alert batches, checkpoints, crash-restarts — replays
// them against a fresh service per episode over /api/v1, and checks the
// paper's soundness oracles after every drained episode (repaired store ≡
// attack-free execution, index integrity, Theorem-3 repair ordering, run
// completion). Failing episodes are shrunk to minimal reproducers and,
// with -corpus, serialized as regression seeds.
//
//	selfheal-fuzz -episodes 25 -seed 1            fixed-seed campaign
//	selfheal-fuzz -duration 30s                   time-bounded campaign
//	selfheal-fuzz -durable -episodes 5            child-process target,
//	                                              SIGKILL crash-restarts
//	selfheal-fuzz -fault-skip-repair -expect-fail mutation smoke: the
//	                                              injected bug must be
//	                                              found and shrunk
//
// In -durable mode each episode boots the fuzzer binary itself as a child
// server process (the hidden -serve mode) on a fresh WAL directory;
// restart ops kill it with SIGKILL mid-flight and reboot it on the same
// directory, so WAL replay and repair are exercised under real crashes.
//
// Exit status: 0 when the campaign matches expectation (no violations, or
// with -expect-fail at least one found-and-shrunk failure), 1 otherwise.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"selfheal/internal/durable"
	"selfheal/internal/fuzz"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
)

func main() {
	seed := flag.Int64("seed", 1, "first schedule seed")
	episodes := flag.Int("episodes", 0, "episodes to run (0: run until -duration elapses)")
	duration := flag.Duration("duration", 30*time.Second, "campaign budget when -episodes is 0")
	timeout := flag.Duration("timeout", 30*time.Second, "per-episode deadline")
	durableMode := flag.Bool("durable", false, "run each episode against a child-process server with SIGKILL crash-restarts")
	strict := flag.Bool("strict", false, "fuzz the Theorem-4 strict-gating configuration")
	triageOn := flag.Bool("triage", false, "fuzz the streaming-triage configuration")
	corpusDir := flag.String("corpus", "", "write shrunk reproducers into this directory")
	faultSkip := flag.Bool("fault-skip-repair", false, "inject the skip-repair soundness fault into every target (mutation smoke)")
	expectFail := flag.Bool("expect-fail", false, "succeed only if the campaign finds and shrinks at least one violation")

	serve := flag.Bool("serve", false, "internal: run as a child server process")
	serveDir := flag.String("serve-dir", "", "internal: WAL directory for -serve")
	flag.Parse()

	if *serve {
		serveChild(*serveDir, *faultSkip, *strict, *triageOn)
		return
	}

	params := fuzz.DefaultParams()
	params.Checkpoints = 1
	factory := func() (fuzz.Target, error) {
		return fuzz.NewInProcTarget(fuzz.InProcOptions{
			Strict: *strict, Triage: *triageOn,
			Fault: shard.FaultInjection{SkipRepair: *faultSkip},
		})
	}
	if *durableMode {
		params.Restarts = 2
		self, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		factory = func() (fuzz.Target, error) {
			return newProcTarget(self, *faultSkip, *strict, *triageOn)
		}
	}

	runner := &fuzz.Runner{Timeout: *timeout}
	start := time.Now()
	var res *fuzz.CampaignResult
	var err error
	if *episodes > 0 {
		seeds := make([]int64, *episodes)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		res, err = runner.Campaign(factory, seeds, params)
	} else {
		res, err = runner.CampaignUntil(factory, *seed, start.Add(*duration), params)
	}
	if err != nil {
		log.Fatalf("selfheal-fuzz: harness error: %v", err)
	}

	fmt.Printf("selfheal-fuzz: %d episodes in %s, %d failures\n",
		res.Episodes, time.Since(start).Truncate(time.Millisecond), len(res.Failures))
	for _, f := range res.Failures {
		fmt.Printf("seed %d: %s\n", f.Seed, f.Violations[0])
		fmt.Printf("  shrunk to %d ops in %d steps\n", len(f.Shrunk.Ops), f.ShrinkSteps)
		if *corpusDir != "" {
			path, werr := fuzz.WriteCorpusEntry(*corpusDir, f.Entry())
			if werr != nil {
				log.Fatalf("selfheal-fuzz: corpus: %v", werr)
			}
			fmt.Printf("  reproducer: %s\n", path)
		}
	}

	failed := len(res.Failures) > 0
	if failed != *expectFail {
		if *expectFail {
			fmt.Println("selfheal-fuzz: FAIL: expected the campaign to find a violation and it found none")
		} else {
			fmt.Println("selfheal-fuzz: FAIL: oracle violations found")
		}
		os.Exit(1)
	}
	fmt.Println("selfheal-fuzz: OK")
}

// serveChild runs the hidden child-server mode: a durable service with the
// chaos surface on an ephemeral port. The parent reads the first stdout
// line for the address and SIGKILLs the process to simulate crashes.
func serveChild(dir string, faultSkip, strict, triageOn bool) {
	if dir == "" {
		log.Fatal("selfheal-fuzz: -serve requires -serve-dir")
	}
	cfg := shard.Config{
		Strict:       strict,
		AuditRepairs: true,
		Fault:        shard.FaultInjection{SkipRepair: faultSkip},
	}
	if triageOn {
		cfg.Triage = triage.All()
	}
	svc, err := shard.NewDurable(cfg, dir, durable.Options{})
	if err != nil {
		log.Fatal(err)
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selfheal-fuzz serving on %s\n", ln.Addr())
	srv := &http.Server{
		Handler:           httpapi.ServerWithChaos(obs.NewRegistry(), svc),
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Fatal(srv.Serve(ln))
}

// procTarget drives a child selfheal-fuzz -serve process; Restart kills it
// with SIGKILL and reboots on the same WAL directory.
type procTarget struct {
	self     string
	dir      string
	fault    bool
	strict   bool
	triageOn bool
	cmd      *exec.Cmd
	url      string
}

func newProcTarget(self string, fault, strict, triageOn bool) (*procTarget, error) {
	dir, err := os.MkdirTemp("", "selfheal-fuzz-*")
	if err != nil {
		return nil, err
	}
	t := &procTarget{self: self, dir: dir, fault: fault, strict: strict, triageOn: triageOn}
	if err := t.boot(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return t, nil
}

func (t *procTarget) boot() error {
	args := []string{"-serve", "-serve-dir", t.dir}
	if t.fault {
		args = append(args, "-fault-skip-repair")
	}
	if t.strict {
		args = append(args, "-strict")
	}
	if t.triageOn {
		args = append(args, "-triage")
	}
	cmd := exec.Command(t.self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("selfheal-fuzz: child produced no address line: %w", err)
	}
	const marker = "serving on "
	i := strings.LastIndex(strings.TrimSpace(line), marker)
	if i < 0 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("selfheal-fuzz: unexpected child banner %q", line)
	}
	t.cmd = cmd
	t.url = "http://" + strings.TrimSpace(line)[i+len(marker):]
	// Wait for the listener to actually answer before running ops.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(t.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("selfheal-fuzz: child never became healthy: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (t *procTarget) kill() {
	if t.cmd == nil {
		return
	}
	_ = t.cmd.Process.Kill() // SIGKILL: no shutdown hooks, no final fsync
	_ = t.cmd.Wait()
	t.cmd = nil
}

func (t *procTarget) BaseURL() string { return t.url }
func (t *procTarget) Durable() bool   { return true }

func (t *procTarget) Restart() error {
	t.kill()
	return t.boot()
}

func (t *procTarget) Close() error {
	t.kill()
	return os.RemoveAll(t.dir)
}
