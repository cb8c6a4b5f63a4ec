// Command experiments regenerates the paper's evaluation: every table and
// figure in DESIGN.md §3, printed as aligned text tables.
//
// Usage:
//
//	experiments [-seed N] [-only E1,E2,...] [-list]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"rollrec/internal/experiments"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file covering the runs (best with a single -only id)")
	traceSum := flag.Bool("trace-summary", false, "print the per-phase latency summary after the tables")
	traceBuf := flag.Int("trace-buf", 1<<20, "trace ring capacity in events; older events are evicted when full")
	tlDir := flag.String("timeline", "", "rerun the D11 and D12 crash cells per style with sampling on and write timeline_D1{1,2}_<style>.{json,csv} into this directory")
	tlEvery := flag.Duration("timeline-interval", timeline.DefaultInterval, "timeline sampling interval (virtual time)")
	tlCrash := flag.Duration("timeline-crash", 0, "timeline cell crash instant (0: the experiment's 10s)")
	tlHorizon := flag.Duration("timeline-horizon", 0, "timeline cell horizon (0: the experiment's 25s)")
	flag.Parse()

	var rec *trace.Recorder
	if *traceOut != "" || *traceSum {
		rec = trace.NewRecorder(*traceBuf)
		experiments.DefaultTracer = rec
	}

	if *list {
		for _, e := range experiments.Index {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	// Ctrl-C cancels the in-flight simulation via the experiments context
	// instead of killing the process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *tlDir != "" {
		if err := writeTimelines(ctx, *tlDir, *seed, *tlEvery, *tlCrash, *tlHorizon); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if len(want) == 0 && *only == "" {
			return // -timeline alone: just the sampled cells, no tables
		}
	}

	ran := 0
	for _, e := range experiments.Index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now() //rollvet:allow simtime -- wall-clock progress reporting for the operator, not protocol time
		table := e.Run(ctx, *seed)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Println(table.String())
		//rollvet:allow simtime -- wall-clock progress reporting for the operator, not protocol time
		fmt.Printf("(%s computed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; use -list\n", *only)
		os.Exit(2)
	}

	if rec != nil {
		if *traceSum {
			fmt.Printf("recovery-phase latency summary (%d events, %d dropped):\n",
				rec.Len(), rec.Dropped())
			if err := trace.WriteSummary(os.Stdout, rec.Events()); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
		}
		if *traceOut != "" {
			if err := writeChromeFile(*traceOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			fmt.Printf("trace: %d events written to %s (open in ui.perfetto.dev)\n",
				rec.Len(), *traceOut)
			if d := rec.Dropped(); d > 0 {
				fmt.Printf("trace: ring full, %d oldest events evicted; rerun with a larger -trace-buf\n", d)
			}
		}
	}
}

// writeTimelines reruns the D11 and D12 failure cells per style with a
// sampler attached and writes one JSON + CSV export pair per style and
// experiment. The exports are byte-deterministic: same seed, interval, and
// cell → identical files, regardless of host or GOMAXPROCS (the CI
// timeline-smoke job pins this).
func writeTimelines(ctx context.Context, dir string, seed int64, every, crashAt, horizon time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(base string, e *timeline.Export) error {
		if err := e.WriteFile(base + ".json"); err != nil {
			return err
		}
		if err := e.WriteCSVFile(base + ".csv"); err != nil {
			return err
		}
		fmt.Printf("timeline: %s → %s.{json,csv} (%d ticks, %d markers)\n",
			e.Meta.Label, base, len(e.Ticks), len(e.Markers))
		return nil
	}
	for _, tl := range experiments.D11Timelines(ctx, seed, every, crashAt, horizon) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := write(filepath.Join(dir, "timeline_D11_"+tl.Style), tl.Export); err != nil {
			return err
		}
	}
	for _, tl := range experiments.D12Timelines(ctx, seed, every, crashAt, horizon) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := write(filepath.Join(dir, "timeline_D12_"+tl.Style), tl.Export); err != nil {
			return err
		}
	}
	return nil
}

func writeChromeFile(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	opts := trace.ChromeOptions{
		KindName: func(k uint8) string { return wire.Kind(k).String() },
	}
	if err := trace.WriteChrome(f, rec.Events(), opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
