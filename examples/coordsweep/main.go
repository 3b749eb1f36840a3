// Example coordsweep demonstrates the two failure stories of a plan job.
// The crash story runs over a loopback HTTP fleet: a coordinator hands
// the plan's units to three pull workers under heartbeat-kept leases, one
// worker is killed mid-sweep by fault injection, and the sweep still
// completes — the crashed worker's unit is recovered through lease
// expiry and the final report is byte-identical to a static, unsharded
// run. The poison story runs on the static pool: one unit fails, it is
// dead-lettered after its one attempt, the rest of the sweep still
// reports, and the partial report lists the lost unit explicitly.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/rmwtso"
)

func main() {
	// A small sweep so the example finishes in seconds; short leases so
	// the injected crash is recovered quickly.
	opts := rmwtso.QuickOptions()
	opts.Cores = 4
	opts.Scale = 0.05
	cfg := rmwtso.CoordinationConfig{
		LeaseTTL:     500 * time.Millisecond,
		MaxAttempts:  3,
		RetryBackoff: 20 * time.Millisecond,
	}

	plan, err := rmwtso.DefaultPlan(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d units, fingerprint %.16s…\n\n", plan.Len(), plan.Fingerprint())

	// The static baseline every fleet run must reproduce exactly.
	static, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		log.Fatal(err)
	}
	wantRuns, err := plan.Runs(static.Units)
	if err != nil {
		log.Fatal(err)
	}
	want := encode(opts, wantRuns, nil)

	// The crash story: a coordinator on a loopback port, its observer
	// streaming the queue's state transitions as they happen.
	var mu sync.Mutex
	kinds := map[string]int{}
	coord, err := rmwtso.NewRunner().NewCoordServer(plan, rmwtso.FullShard(), cfg, func(e rmwtso.Event) {
		if e.Coord == nil {
			return
		}
		mu.Lock()
		kinds[e.Coord.Kind]++
		mu.Unlock()
		switch e.Coord.Kind {
		case "expire", "requeue", "dead-letter":
			fmt.Printf("  %s: unit %s (attempt %d) %s\n",
				e.Coord.Kind, e.Coord.Unit, e.Coord.Attempt, e.Coord.Reason)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: coord.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	addr := "http://" + ln.Addr().String()

	// Three pull workers, each with its own Runner; worker-2 dies holding
	// the second unit it leases.
	var wg sync.WaitGroup
	for i := range 3 {
		name := fmt.Sprintf("worker-%d", i)
		var runnerOpts []rmwtso.Option
		if i == 2 {
			var executions atomic.Int64
			runnerOpts = append(runnerOpts, rmwtso.WithFaultInjector(func(worker string, u rmwtso.Unit, _ int) error {
				if executions.Add(1) == 2 {
					fmt.Printf("  !! injecting crash: %s dies holding unit %s\n", worker, u.ID)
					return rmwtso.ErrInjectedCrash
				}
				return nil
			}))
		}
		worker := rmwtso.NewRunner(runnerOpts...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker.RunPlanWorker(nil, plan, addr, name, cfg); err != nil && !errors.Is(err, rmwtso.ErrInjectedCrash) {
				log.Printf("%s: %v", name, err)
			}
		}()
	}
	res, err := coord.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	runs, err := plan.Runs(res.Units)
	if err != nil {
		log.Fatal(err)
	}
	mu.Lock()
	fmt.Printf("\nfleet sweep drained: %d leases, %d acks, %d expiries, %d requeues\n",
		kinds["lease"], kinds["ack"], kinds["expire"], kinds["requeue"])
	mu.Unlock()
	for _, w := range res.Coordination.Workers {
		fmt.Printf("  %-9s completed %2d units (retries %d, expired leases %d)\n",
			w.Worker, w.Units, w.Retries, w.Expired)
	}

	// The differential guarantee: with the coordination section stripped
	// (encode attaches none), the fleet's report is byte-identical.
	if got := encode(opts, runs, nil); !bytes.Equal(got, want) {
		log.Fatal("fleet report differs from the static run")
	}
	fmt.Println("report byte-identical to the static unsharded run ✓")

	// The poison story, on the static pool: one unit fails. It is
	// dead-lettered after its one attempt, the sweep returns a
	// DeadLetterError, and the partial result still carries every other
	// unit.
	poisoned := plan.Units()[0].ID
	fmt.Printf("\npoisoning unit %s on the static pool…\n", poisoned)
	_, err = rmwtso.NewRunner(rmwtso.WithFaultInjector(func(_ string, u rmwtso.Unit, _ int) error {
		if u.ID == poisoned {
			return errors.New("injected poison")
		}
		return nil
	})).RunPlan(nil, plan, rmwtso.FullShard())
	var dle *rmwtso.DeadLetterError
	if !errors.As(err, &dle) {
		log.Fatalf("want *DeadLetterError, got %v", err)
	}
	fmt.Println("sweep finished:", dle)
	partialRuns, missing, err := plan.RunsPartial(dle.Partial.Units)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial report: %d of %d benchmark groups complete, missing units %v\n",
		len(partialRuns), len(wantRuns), missing)
	for _, d := range dle.Partial.Coordination.DeadLetters {
		fmt.Printf("  dead-lettered: %s (%s under %s) after %d attempt; reason: %s\n",
			d.Unit, d.Trace, d.Type, d.Attempts, d.Reasons[len(d.Reasons)-1])
	}
}

// encode renders the report for the byte-identity comparison.
func encode(opts rmwtso.Options, runs []*rmwtso.BenchmarkRun, coord *rmwtso.Coordination) []byte {
	report, err := rmwtso.BuildReport(opts, runs)
	if err != nil {
		log.Fatal(err)
	}
	report.Coordination = coord
	var b bytes.Buffer
	if err := rmwtso.EncodeReport(&b, report, rmwtso.FormatJSON); err != nil {
		log.Fatal(err)
	}
	return b.Bytes()
}
