package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"mobicache/internal/faults"
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
// one); 8 = embeds Config, whose json tags are the keys every earlier
// schema wrote (so v1-v7 files decode unchanged), and adds the digest.
// The warmup key left Config when every run came to measure its whole
// horizon; it is still read without a version bump, a file that records
// 0 replays as before, and a nonzero one is refused.
const ManifestSchemaVersion = 8

// Manifest is the reproducibility record of one run: the Config that ran
// (embedded, so every knob is recorded under its json tag), the workload
// by name, the Digest of its Results to verify a replay against, a few
// headline numbers, and the kernel's self-profile. The engine fills
// everything except the wall-clock fields, which the command layer
// stamps after the run — simulator packages never read the wall clock
// (DESIGN.md §7).
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`

	// Reproduction inputs. Config's runtime fields are zero here (they
	// are tagged "-"); Workload and SpansEnabled stand in for two of them.
	Config
	Workload string `json:"workload"`
	// SpansEnabled records whether the span/AoI observability layer was
	// armed (Config.Spans != nil). Replay re-arms it so the span fields
	// of Results can be verified; assembly draws no randomness, so the
	// rest of Results is identical either way.
	SpansEnabled bool `json:"spans_enabled,omitempty"`
	// ReportLossProb is the retired Bernoulli report-loss knob, still
	// read from files that carry it: replay maps it onto Faults.DownLoss
	// = faults.Bernoulli(p), the degenerate chain it always ran as.
	ReportLossProb float64 `json:"report_loss_prob,omitempty"`
	// Warmup is the retired measurement-warmup key. Every run measures
	// its whole horizon, so only a file that records 0 can replay.
	Warmup float64 `json:"warmup,omitempty"`

	// Digest is Digest(Results) of the recorded run (schema 8 on). A
	// replay verifies by it, so a divergence in any Results field is
	// caught.
	Digest string `json:"digest,omitempty"`
	// Headline results. Files before schema 8 carry no digest and are
	// verified by these alone.
	QueriesAnswered    int64   `json:"queries_answered"`
	HitRatio           float64 `json:"hit_ratio"`
	UplinkBitsPerQuery float64 `json:"uplink_bits_per_query"`
	Events             uint64  `json:"events"`
	// Span headline (zero unless SpansEnabled): terminal span count and
	// the AoI 95th percentile.
	SpanTerminal int64   `json:"span_terminal,omitempty"`
	AoIP95       float64 `json:"aoi_p95,omitempty"`

	// Kernel self-profile.
	PeakEventQueue int `json:"peak_event_queue"`

	// Wall-clock profile, stamped by the command layer (zero when the
	// caller did not measure).
	WallClockSec float64 `json:"wall_clock_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Digest is the canonical hash of a run: SHA-256, in hex, over the JSON
// encoding of r. Results.Config is left out of the encoding, and
// encoding/json writes map keys sorted and floats in shortest round-trip
// form, so two runs share a digest exactly when every result field is
// bit-identical. It fails only on a non-finite float, which the audit
// Run applies rejects.
func Digest(r *Results) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("engine: digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// NewManifest builds the manifest of a completed run. Wall-clock fields
// are left zero for the command layer to stamp.
func NewManifest(r *Results) *Manifest {
	c := r.Config
	m := &Manifest{
		SchemaVersion:      ManifestSchemaVersion,
		GoVersion:          runtime.Version(),
		Config:             c,
		Workload:           c.Workload.Name,
		SpansEnabled:       c.Spans != nil && r.Spans != nil,
		QueriesAnswered:    r.QueriesAnswered,
		HitRatio:           r.HitRatio,
		UplinkBitsPerQuery: r.UplinkBitsPerQuery,
		Events:             r.Events,
		PeakEventQueue:     r.PeakEventQueue,
	}
	// The runtime fields would otherwise carry the recorded run's
	// tracer, registry and span sink into its replay.
	m.Config.Workload = workload.Workload{}
	m.Config.Trace, m.Config.Metrics, m.Config.Aggregate, m.Config.Spans = nil, nil, false, nil
	m.Digest, _ = Digest(r) // empty only for a run that failed its audit
	if m.SpansEnabled {
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
	if m.Warmup != 0 {
		return Config{}, fmt.Errorf("engine: manifest sets warmup %v; runs measure the whole horizon, so only 0 replays", m.Warmup)
	}
	c := m.Config
	var err error
	if c.Workload, err = workload.Parse(m.Workload, c.DBSize); err != nil {
		return Config{}, err
	}
	if m.SpansEnabled {
		c.Spans = &SpanOptions{}
	}
	if c.Cells == 0 { // written before schema 7: one cell
		c.Cells = 1
	}
	if m.ReportLossProb > 0 {
		if c.Faults.DownLoss.Enabled() {
			return Config{}, fmt.Errorf("engine: manifest sets both report_loss_prob and Faults.DownLoss")
		}
		c.Faults.DownLoss = faults.Bernoulli(m.ReportLossProb)
	}
	return c, nil
}

// VerifyReplay checks a replayed run against the recorded one, returning
// a descriptive error on a mismatch. From schema 8 it compares the whole
// digest; older files compare the headline numbers they carry.
func (m *Manifest) VerifyReplay(r *Results) error {
	if m.SchemaVersion >= 8 {
		d, err := Digest(r)
		if err == nil && d != m.Digest {
			err = fmt.Errorf("engine: replay digest %s, manifest records %s (answered %d/%d, events %d/%d)",
				d, m.Digest, r.QueriesAnswered, m.QueriesAnswered, r.Events, m.Events)
		}
		return err
	}
	var terminal int64
	var aoi float64
	if m.SpansEnabled {
		aoi = r.AoIP95
		if r.Spans != nil {
			terminal = r.Spans.Terminal()
		}
	}
	for _, h := range []struct {
		what      string
		got, want any
	}{
		{"queries answered", r.QueriesAnswered, m.QueriesAnswered},
		{"events", r.Events, m.Events},
		{"hit ratio", r.HitRatio, m.HitRatio},
		{"uplink bits/query", r.UplinkBitsPerQuery, m.UplinkBitsPerQuery},
		{"terminal spans", terminal, m.SpanTerminal},
		{"AoI p95", aoi, m.AoIP95},
	} {
		if h.got != h.want {
			return fmt.Errorf("engine: replay %s %v, manifest records %v", h.what, h.got, h.want)
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
