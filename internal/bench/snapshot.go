package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"rollrec/internal/metrics"
)

// SchemaVersion identifies the snapshot layout. Bump it on any change to
// the cell schema or to the meaning of a metric. Decode accepts only this
// version: regenerate older snapshots with the current binary.
//
// v2: cells gained output_commit (DESIGN §10) and outputs; merged-seed
// cells gained params.seeds and across_seeds.
//
// v3: the offered-load axis (DESIGN §12). Loaded cells carry params.load
// (with a "/load=" key suffix), offered/shed arrival counts, and
// client_commit — the user-visible commit-latency distribution at the
// client tier. Load-free cells are byte-identical to their v2 form.
const SchemaVersion = 3

// Meta describes where a snapshot came from. It is informational only:
// compare and the golden tests diff axes+cells and ignore Meta, because
// git revision and toolchain legitimately differ between the two sides of
// a regression check.
type Meta struct {
	Schema    int    `json:"schema"`
	Label     string `json:"label"`
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
}

// Dist summarizes a per-cell sample set in milliseconds. Values are
// rounded to 1 µs so the JSON stays legible; the rounding is deterministic
// and happens once, at aggregation time.
type Dist struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func ms(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}

// distOf aggregates a sample set; order of samples does not matter (the
// quantile sorts, the mean is a sum).
func distOf(ds []time.Duration) Dist {
	if len(ds) == 0 {
		return Dist{}
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return Dist{
		MeanMS: ms(sum / time.Duration(len(ds))),
		P50MS:  ms(metrics.Quantile(ds, 0.50)),
		P99MS:  ms(metrics.Quantile(ds, 0.99)),
	}
}

// MinMeanMax summarizes one scalar across a merged cell's seeds.
type MinMeanMax struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func minMeanMax(xs []float64) MinMeanMax {
	if len(xs) == 0 {
		return MinMeanMax{}
	}
	m := MinMeanMax{Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		m.Min = math.Min(m.Min, x)
		m.Max = math.Max(m.Max, x)
	}
	m.Mean = math.Round(sum/float64(len(xs))*1000) / 1000
	return m
}

// SeedSpread is a merged cell's across-seed variation: how the headline
// per-seed costs spread over the cell's seed list. It answers "is this
// number a property of the configuration or of one lucky seed?"
type SeedSpread struct {
	RecoveryMeanMS MinMeanMax `json:"recovery_mean_ms"`
	BlockedMeanMS  MinMeanMax `json:"blocked_mean_ms"`
	CtlMsgs        MinMeanMax `json:"ctl_msgs"`
	CtlBytes       MinMeanMax `json:"ctl_bytes"`
	SimEvents      MinMeanMax `json:"sim_events"`
}

// Cell is the measured outcome of one parameter combination. A merged cell
// (params.seeds set) pools samples and sums totals over every seed it ran.
type Cell struct {
	Key    string `json:"key"`
	Params Params `json:"params"`
	// Recovery aggregates crash-to-live latency over the cell's completed
	// recoveries (Recoveries of them; 0 in failure-free cells).
	Recovery   Dist `json:"recovery"`
	Recoveries int  `json:"recoveries"`
	// Blocked aggregates total blocked time over the processes that never
	// crashed — the paper's intrusion metric.
	Blocked Dist `json:"blocked"`
	// Control traffic attributable to the recovery protocol, summed over
	// the whole run (experiments.Result.RecoveryTraffic).
	CtlMsgs  int64 `json:"ctl_msgs"`
	CtlBytes int64 `json:"ctl_bytes"`
	// Delivered counts application messages delivered cluster-wide.
	Delivered int64 `json:"delivered"`
	// SimEvents is the number of simulator events processed — the
	// deterministic cost of simulating the cell. Wall-clock cost is
	// reported on stderr by cmd/bench and deliberately kept OUT of the
	// snapshot so files stay byte-identical across runs.
	SimEvents int64 `json:"sim_events"`
	// SimMS is the virtual horizon simulated.
	SimMS float64 `json:"sim_ms"`
	// Outputs counts externally-visible outputs the workload requested;
	// OutputCommit aggregates their request-to-release latency (DESIGN
	// §10). Zero for workloads that never call ctx.Output, like the
	// default sweep's gossip.
	Outputs      int64 `json:"outputs"`
	OutputCommit Dist  `json:"output_commit"`
	// Offered and Shed count the open-loop arrivals the traffic engine
	// generated and the ones lost to unavailable clients; ClientCommit is
	// the client tier's commit-latency distribution — what a user sees.
	// Only loaded cells (params.load > 0) carry them.
	Offered      int64 `json:"offered,omitempty"`
	Shed         int64 `json:"shed,omitempty"`
	ClientCommit *Dist `json:"client_commit,omitempty"`
	// Errors counts cross-process invariant violations (expected 0).
	Errors int `json:"errors"`
	// AcrossSeeds is the per-seed spread; only merged cells carry it.
	AcrossSeeds *SeedSpread `json:"across_seeds,omitempty"`
}

// Snapshot is the versioned, machine-readable result of one sweep: what
// BENCH_<label>.json holds.
type Snapshot struct {
	Meta  Meta   `json:"meta"`
	Axes  Axes   `json:"axes"`
	Cells []Cell `json:"cells"`
}

// Encode writes the canonical byte-stable JSON form: two-space indent,
// struct-ordered fields, trailing newline.
func (s *Snapshot) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the snapshot to path in canonical form.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode reads a snapshot of schema SchemaVersion, rejecting any other.
func Decode(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("bench: malformed snapshot: %w", err)
	}
	switch {
	case s.Meta.Schema > SchemaVersion:
		return nil, fmt.Errorf("bench: snapshot schema %d is newer than this binary's %d; rebuild or regenerate",
			s.Meta.Schema, SchemaVersion)
	case s.Meta.Schema != SchemaVersion:
		return nil, fmt.Errorf("bench: snapshot schema %d is older than this binary's %d; regenerate it",
			s.Meta.Schema, SchemaVersion)
	}
	return &s, nil
}

// ReadFile reads a snapshot from path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Markdown renders the snapshot's cells as a GitHub-flavored markdown
// table — the form EXPERIMENTS.md's "Sweeps" section embeds, so the doc
// tables are regenerated by the harness rather than written by hand.
func Markdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintln(w,
		"| seed | n | f | hw | style | load | recovery mean (ms) | p50 | p99 | blocked mean (ms) | p99 | ctl msgs | ctl bytes | sim events |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w,
		"|---:|---:|---:|:---|:---|---:|---:|---:|---:|---:|---:|---:|---:|---:|"); err != nil {
		return err
	}
	for _, c := range s.Cells {
		load := "-"
		if c.Params.Load > 0 {
			load = fmt.Sprintf("%d", c.Params.Load)
		}
		if _, err := fmt.Fprintf(w, "| %s | %d | %d | %s | %s | %s | %.3f | %.3f | %.3f | %.3f | %.3f | %d | %d | %d |\n",
			c.Params.seedLabel(), c.Params.N, c.Params.Failures, c.Params.Profile, c.Params.Style, load,
			c.Recovery.MeanMS, c.Recovery.P50MS, c.Recovery.P99MS,
			c.Blocked.MeanMS, c.Blocked.P99MS,
			c.CtlMsgs, c.CtlBytes, c.SimEvents); err != nil {
			return err
		}
	}
	return nil
}
