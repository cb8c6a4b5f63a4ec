package timeline

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// SchemaVersion identifies the export layout. Bump it on any change to the
// tick row schema or to the meaning of a series; Decode accepts only this
// version.
//
// v2 added the optional per-tier series for the traffic workload
// (meta.tiers, inflight_req, tier_output).
const SchemaVersion = 2

// Marker kinds: the crash and recovery-phase boundaries annotated on the
// timeline. Renderers and tests match on these strings.
const (
	MarkCrash       = "crash"
	MarkRestart     = "restart"
	MarkRestored    = "restored"
	MarkGathered    = "gathered"
	MarkRecoveryEnd = "recovery-end"
)

// markerRank orders marker kinds at equal (time, proc): lifecycle order.
var markerRank = map[string]int{
	MarkCrash:       0,
	MarkRestart:     1,
	MarkRestored:    2,
	MarkGathered:    3,
	MarkRecoveryEnd: 4,
}

// Meta describes a timeline export.
type Meta struct {
	Schema     int     `json:"schema"`
	Label      string  `json:"label"`
	IntervalMS float64 `json:"interval_ms"`
	N          int     `json:"n"`
	// Tiers is the tier partition of the N processes when the run hosted
	// the multi-tier traffic workload; absent otherwise.
	Tiers []int `json:"tiers,omitempty"`
}

// WindowDist is one tumbling window's latency distribution: the
// observations recorded between the previous tick and this one.
type WindowDist struct {
	N      int64   `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// Tick is one sample row. Cluster-wide gauges are scalars; per-process
// gauges are arrays indexed by process id; Phases packs one phase rune per
// process (see Phase.Rune).
type Tick struct {
	TMS      float64 `json:"t_ms"`
	Queue    int     `json:"queue"`
	InFlight int     `json:"inflight"`
	Phases   string  `json:"phases"`
	Journal  []int   `json:"journal"`
	Lag      []int   `json:"lag"`
	Stable   []int64 `json:"stable_bytes"`
	Backlog  []int   `json:"backlog"`
	// Oldest is the per-process backlog age: milliseconds since the oldest
	// still-open output was requested (0 when nothing is open). Unlike the
	// open count — which freezes when a crashed process stops requesting —
	// this keeps climbing through an outage and drops only when recovery
	// releases the straddling outputs.
	Oldest []float64 `json:"oldest_open_ms"`
	// Delivery and Output are this window's latency percentiles for frame
	// delivery and output commit respectively.
	Delivery WindowDist `json:"delivery"`
	Output   WindowDist `json:"output_commit"`
	// InflightReq and TierOutput are the per-tier series (indexed like
	// Meta.Tiers): open requests held by each tier at the sample instant,
	// and each tier's windowed output-commit percentiles. Present only on
	// tiered runs.
	InflightReq []int        `json:"inflight_req,omitempty"`
	TierOutput  []WindowDist `json:"tier_output,omitempty"`
}

// Marker is one annotated instant on the timeline.
type Marker struct {
	TMS  float64 `json:"t_ms"`
	Proc int     `json:"proc"`
	Kind string  `json:"kind"`
}

// Export is the versioned, machine-readable result of one sampled run.
type Export struct {
	Meta    Meta     `json:"meta"`
	Ticks   []Tick   `json:"ticks"`
	Markers []Marker `json:"markers"`
}

// ms rounds a duration to 1 µs and reports it in milliseconds — the same
// deterministic rounding the bench snapshots use, applied once at
// aggregation time.
func ms(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}

func sortMarkers(ms []Marker) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].TMS != ms[j].TMS {
			return ms[i].TMS < ms[j].TMS
		}
		if ms[i].Proc != ms[j].Proc {
			return ms[i].Proc < ms[j].Proc
		}
		return markerRank[ms[i].Kind] < markerRank[ms[j].Kind]
	})
}

// Encode writes the canonical byte-stable JSON form: two-space indent,
// struct-ordered fields, trailing newline.
func (e *Export) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the export to path in canonical form.
func (e *Export) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode reads an export, rejecting any schema but SchemaVersion.
func Decode(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("timeline: malformed export: %w", err)
	}
	switch {
	case e.Meta.Schema < SchemaVersion:
		return nil, fmt.Errorf("timeline: export schema %d predates this binary's %d; regenerate",
			e.Meta.Schema, SchemaVersion)
	case e.Meta.Schema > SchemaVersion:
		return nil, fmt.Errorf("timeline: export schema %d is newer than this binary's %d; rebuild or regenerate",
			e.Meta.Schema, SchemaVersion)
	}
	return &e, nil
}

// ReadFile reads an export from path.
func ReadFile(path string) (*Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// csvHeader is the CSV column set: one row per tick, cluster-level values
// (per-process arrays are summed; phases stay packed). CSV is the artifact
// form — spreadsheet-friendly, still byte-deterministic. Tiered exports
// append per-tier columns after these; untiered exports keep exactly this
// set, so pre-v2 CSV artifacts are byte-stable.
var csvHeader = []string{
	"t_ms", "queue", "inflight", "phases",
	"journal", "lag", "stable_bytes", "backlog", "oldest_open_ms",
	"delivery_n", "delivery_p50_ms", "delivery_p99_ms", "delivery_p999_ms",
	"output_n", "output_p50_ms", "output_p99_ms", "output_p999_ms",
}

// EncodeCSV writes the cluster-level CSV form.
func (e *Export) EncodeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := csvHeader
	if len(e.Meta.Tiers) > 0 {
		header = append([]string(nil), csvHeader...)
		for t := range e.Meta.Tiers {
			header = append(header,
				fmt.Sprintf("inflight_req_t%d", t),
				fmt.Sprintf("output_t%d_n", t),
				fmt.Sprintf("output_t%d_p50_ms", t),
				fmt.Sprintf("output_t%d_p99_ms", t),
				fmt.Sprintf("output_t%d_p999_ms", t),
			)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	fms := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, t := range e.Ticks {
		var journal, lag, backlog int
		var stable int64
		for i := range t.Journal {
			journal += t.Journal[i]
			lag += t.Lag[i]
			stable += t.Stable[i]
			backlog += t.Backlog[i]
		}
		// Backlog age is a worst-case gauge, so the cluster column takes the
		// maximum, not a meaningless sum of ages.
		var oldest float64
		for _, v := range t.Oldest {
			if v > oldest {
				oldest = v
			}
		}
		rec := []string{
			fms(t.TMS),
			strconv.Itoa(t.Queue),
			strconv.Itoa(t.InFlight),
			t.Phases,
			strconv.Itoa(journal),
			strconv.Itoa(lag),
			strconv.FormatInt(stable, 10),
			strconv.Itoa(backlog),
			fms(oldest),
			strconv.FormatInt(t.Delivery.N, 10),
			fms(t.Delivery.P50MS), fms(t.Delivery.P99MS), fms(t.Delivery.P999MS),
			strconv.FormatInt(t.Output.N, 10),
			fms(t.Output.P50MS), fms(t.Output.P99MS), fms(t.Output.P999MS),
		}
		for ti := range e.Meta.Tiers {
			var inflight int
			var dist WindowDist
			if ti < len(t.InflightReq) {
				inflight = t.InflightReq[ti]
			}
			if ti < len(t.TierOutput) {
				dist = t.TierOutput[ti]
			}
			rec = append(rec,
				strconv.Itoa(inflight),
				strconv.FormatInt(dist.N, 10),
				fms(dist.P50MS), fms(dist.P99MS), fms(dist.P999MS),
			)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the CSV form to path.
func (e *Export) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.EncodeCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ClusterBacklog returns the summed output-commit backlog series, one value
// per tick — the headline "what does a user-visible stall look like" lane.
func (e *Export) ClusterBacklog() []int {
	out := make([]int, len(e.Ticks))
	for i, t := range e.Ticks {
		for _, b := range t.Backlog {
			out[i] += b
		}
	}
	return out
}

// ProcBacklog returns process p's backlog series, one value per tick.
func (e *Export) ProcBacklog(p int) []int {
	out := make([]int, len(e.Ticks))
	for i, t := range e.Ticks {
		if p < len(t.Backlog) {
			out[i] = t.Backlog[p]
		}
	}
	return out
}

// ProcOldest returns process p's backlog-age series (milliseconds since its
// oldest open output was requested), one value per tick.
func (e *Export) ProcOldest(p int) []float64 {
	out := make([]float64, len(e.Ticks))
	for i, t := range e.Ticks {
		if p < len(t.Oldest) {
			out[i] = t.Oldest[p]
		}
	}
	return out
}

// MarkerAt returns the first marker of the given kind for proc (-1: any
// proc), and whether one exists.
func (e *Export) MarkerAt(kind string, proc int) (Marker, bool) {
	for _, m := range e.Markers {
		if m.Kind == kind && (proc < 0 || m.Proc == proc) {
			return m, true
		}
	}
	return Marker{}, false
}
