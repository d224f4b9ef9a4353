package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/faults"
	"mobicache/internal/overload"
	"mobicache/internal/workload"
)

// ManifestSchemaVersion identifies the manifest layout; bump it whenever
// a field changes meaning so downstream tooling can refuse stale files.
// Version history: 1 = initial layout; 2 = added the overload block
// (older manifests decode with a zero Overload, which is exactly the
// disabled layer, so replay stays faithful); 3 = added the delivery
// block (same zero-value-is-disabled property, so v1/v2 manifests
// replay unchanged); 4 = added the span/AoI observability block
// (spans_enabled re-arms the layer on replay and span_terminal/aoi_p95
// join the digest; older manifests decode with the layer off, which is
// bit-identical to how they ran, so replay stays faithful); 5 = added
// the churn block (zero value is the disabled population-churn layer,
// which draws no randomness, so pre-v5 manifests replay unchanged);
// 6 = added the aggregate flag, which recorded which of two client
// representations ran. One representation remains, so the flag is no
// longer written; encoding/json skips the key when a v6 file that
// carries it is read, and the file replays unchanged; 7 = added cells
// and move_prob (a file without them is a single-cell run and replays as
// one).
const ManifestSchemaVersion = 7

// Manifest is the reproducibility record of one run: every knob needed
// to re-execute it bit-identically (scheme, workload, seed, all Config
// scalars, the fault plan), a digest of the headline results to verify a
// replay against, and the kernel's self-profile. The engine fills
// everything except the wall-clock fields, which the command layer
// stamps after the run — simulator packages never read the wall clock
// (DESIGN.md §7).
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`

	// Reproduction inputs.
	Scheme           string          `json:"scheme"`
	Workload         string          `json:"workload"`
	Seed             uint64          `json:"seed"`
	Clients          int             `json:"clients"`
	Cells            int             `json:"cells"`
	MoveProb         float64         `json:"move_prob"`
	DBSize           int             `json:"db_size"`
	ItemBits         float64         `json:"item_bits"`
	BufferPct        float64         `json:"buffer_pct"`
	Period           float64         `json:"period"`
	WindowIntervals  int             `json:"window_intervals"`
	DownlinkBps      float64         `json:"downlink_bps"`
	UplinkBps        float64         `json:"uplink_bps"`
	ControlMsgBits   float64         `json:"control_msg_bits"`
	MeanThink        float64         `json:"mean_think"`
	MeanUpdate       float64         `json:"mean_update"`
	MeanDisc         float64         `json:"mean_disc"`
	ProbDisc         float64         `json:"prob_disc"`
	DiscPerInterval  bool            `json:"disc_per_interval"`
	SimTime          float64         `json:"sim_time"`
	Warmup           float64         `json:"warmup"`
	TSBits           int             `json:"ts_bits"`
	HeaderBits       int             `json:"header_bits"`
	ConsistencyCheck bool            `json:"consistency_check"`
	ReportLossProb   float64         `json:"report_loss_prob"`
	Faults           faults.Config   `json:"faults"`
	Overload         overload.Config `json:"overload"`
	Delivery         delivery.Config `json:"delivery"`
	Churn            churn.Config    `json:"churn"`
	// SpansEnabled records whether the span/AoI observability layer was
	// armed (Config.Spans != nil). Replay re-arms it so the span digest
	// fields below can be verified; assembly draws no randomness, so the
	// core digest is identical either way.
	SpansEnabled bool `json:"spans_enabled,omitempty"`

	// Result digest: enough to verify that a replay reproduced the run.
	QueriesAnswered    int64   `json:"queries_answered"`
	HitRatio           float64 `json:"hit_ratio"`
	UplinkBitsPerQuery float64 `json:"uplink_bits_per_query"`
	Events             uint64  `json:"events"`
	// Span digest (zero unless SpansEnabled): terminal span count and the
	// AoI 95th percentile, enough to catch a replay whose observability
	// layer diverged even when the core counters agree.
	SpanTerminal int64   `json:"span_terminal,omitempty"`
	AoIP95       float64 `json:"aoi_p95,omitempty"`

	// Kernel self-profile.
	PeakEventQueue int `json:"peak_event_queue"`

	// Wall-clock profile, stamped by the command layer (zero when the
	// caller did not measure).
	WallClockSec float64 `json:"wall_clock_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// NewManifest builds the manifest of a completed run. Wall-clock fields
// are left zero for the command layer to stamp.
func NewManifest(r *Results) *Manifest {
	c := r.Config
	m := &Manifest{
		SchemaVersion:      ManifestSchemaVersion,
		GoVersion:          runtime.Version(),
		Scheme:             c.Scheme,
		Workload:           c.Workload.Name,
		Seed:               c.Seed,
		Clients:            c.Clients,
		Cells:              c.Cells,
		MoveProb:           c.MoveProb,
		DBSize:             c.DBSize,
		ItemBits:           c.ItemBits,
		BufferPct:          c.BufferPct,
		Period:             c.Period,
		WindowIntervals:    c.WindowIntervals,
		DownlinkBps:        c.DownlinkBps,
		UplinkBps:          c.UplinkBps,
		ControlMsgBits:     c.ControlMsgBits,
		MeanThink:          c.MeanThink,
		MeanUpdate:         c.MeanUpdate,
		MeanDisc:           c.MeanDisc,
		ProbDisc:           c.ProbDisc,
		DiscPerInterval:    c.DiscPerInterval,
		SimTime:            c.SimTime,
		Warmup:             c.Warmup,
		TSBits:             c.TSBits,
		HeaderBits:         c.HeaderBits,
		ConsistencyCheck:   c.ConsistencyCheck,
		ReportLossProb:     c.ReportLossProb,
		Faults:             c.Faults,
		Overload:           c.Overload,
		Delivery:           c.Delivery,
		Churn:              c.Churn,
		QueriesAnswered:    r.QueriesAnswered,
		HitRatio:           r.HitRatio,
		UplinkBitsPerQuery: r.UplinkBitsPerQuery,
		Events:             r.Events,
		PeakEventQueue:     r.PeakEventQueue,
	}
	if c.Spans != nil && r.Spans != nil {
		m.SpansEnabled = true
		m.SpanTerminal = r.Spans.Terminal()
		m.AoIP95 = r.AoIP95
	}
	return m
}

// Stamp fills the wall-clock profile from a measured duration in
// seconds. Only command-layer code should call it; the simulator itself
// never observes real time.
func (m *Manifest) Stamp(wallSec float64) {
	m.WallClockSec = wallSec
	if wallSec > 0 {
		m.EventsPerSec = float64(m.Events) / wallSec
	}
}

// EngineConfig reconstructs the Config that produced this manifest, so a
// recorded run can be replayed exactly.
func (m *Manifest) EngineConfig() (Config, error) {
	if m.SchemaVersion < 1 || m.SchemaVersion > ManifestSchemaVersion {
		return Config{}, fmt.Errorf("engine: manifest schema %d, want 1..%d",
			m.SchemaVersion, ManifestSchemaVersion)
	}
	wl, err := workload.Parse(m.Workload, m.DBSize)
	if err != nil {
		return Config{}, err
	}
	var spans *SpanOptions
	if m.SpansEnabled {
		spans = &SpanOptions{}
	}
	cells := m.Cells
	if cells == 0 { // written before schema 7: one cell
		cells = 1
	}
	return Config{
		Spans:            spans,
		Scheme:           m.Scheme,
		Clients:          m.Clients,
		Cells:            cells,
		MoveProb:         m.MoveProb,
		DBSize:           m.DBSize,
		ItemBits:         m.ItemBits,
		BufferPct:        m.BufferPct,
		Period:           m.Period,
		WindowIntervals:  m.WindowIntervals,
		DownlinkBps:      m.DownlinkBps,
		UplinkBps:        m.UplinkBps,
		ControlMsgBits:   m.ControlMsgBits,
		MeanThink:        m.MeanThink,
		MeanUpdate:       m.MeanUpdate,
		MeanDisc:         m.MeanDisc,
		ProbDisc:         m.ProbDisc,
		DiscPerInterval:  m.DiscPerInterval,
		SimTime:          m.SimTime,
		Warmup:           m.Warmup,
		Seed:             m.Seed,
		Workload:         wl,
		TSBits:           m.TSBits,
		HeaderBits:       m.HeaderBits,
		ConsistencyCheck: m.ConsistencyCheck,
		ReportLossProb:   m.ReportLossProb,
		Faults:           m.Faults,
		Overload:         m.Overload,
		Delivery:         m.Delivery,
		Churn:            m.Churn,
	}, nil
}

// VerifyReplay checks a replayed run's digest against the recorded one,
// returning a descriptive error on the first mismatch.
func (m *Manifest) VerifyReplay(r *Results) error {
	switch {
	case r.QueriesAnswered != m.QueriesAnswered:
		return fmt.Errorf("engine: replay answered %d queries, manifest records %d",
			r.QueriesAnswered, m.QueriesAnswered)
	case r.Events != m.Events:
		return fmt.Errorf("engine: replay executed %d events, manifest records %d",
			r.Events, m.Events)
	case r.HitRatio != m.HitRatio:
		return fmt.Errorf("engine: replay hit ratio %v, manifest records %v",
			r.HitRatio, m.HitRatio)
	case r.UplinkBitsPerQuery != m.UplinkBitsPerQuery:
		return fmt.Errorf("engine: replay uplink bits/query %v, manifest records %v",
			r.UplinkBitsPerQuery, m.UplinkBitsPerQuery)
	}
	if m.SpansEnabled {
		var terminal int64
		if r.Spans != nil {
			terminal = r.Spans.Terminal()
		}
		if terminal != m.SpanTerminal {
			return fmt.Errorf("engine: replay assembled %d terminal spans, manifest records %d",
				terminal, m.SpanTerminal)
		}
		if r.AoIP95 != m.AoIP95 {
			return fmt.Errorf("engine: replay AoI p95 %v, manifest records %v",
				r.AoIP95, m.AoIP95)
		}
	}
	return nil
}

// WriteJSON renders the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest parses a manifest written by WriteJSON.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("engine: bad manifest: %w", err)
	}
	return &m, nil
}
