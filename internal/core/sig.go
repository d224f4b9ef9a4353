package core

import (
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// SIGConfig tunes the combined-signatures scheme.
type SIGConfig struct {
	// Groups is the number of combined signatures K in every report.
	Groups int
	// SigBits is the width of each combined signature.
	SigBits int
	// MemberDenom sets the membership probability: item i belongs to
	// group j with probability 1/MemberDenom (pseudo-randomly from
	// (i, j), identically at server and clients). Each item then sits in
	// about Groups/MemberDenom groups; a cached item is invalidated when
	// every group containing it mismatches.
	MemberDenom int
}

// DefaultSIGConfig: 128 groups of 32-bit signatures with 1/16 membership.
// Each item sits in ~8 groups, so with f recent updates an unchanged
// item is falsely invalidated with probability roughly
// (1-(1-1/16)^f)^8 — under 1% for f ≤ 10, degrading gracefully (toward
// a full drop) for long sleepers, which is SIG's documented behaviour.
func DefaultSIGConfig() SIGConfig {
	return SIGConfig{Groups: 128, SigBits: 32, MemberDenom: 16}
}

// sigScheme is the Barbara–Imielinski combined-signatures method: an
// extension beyond the paper's evaluated set (§1 mentions it as the
// third stateless-server strategy). The report carries K combined
// signatures; clients diff them against the previous report they heard,
// so invalidation works across arbitrarily long disconnections without a
// history window and without any uplink traffic — at the price of
// probabilistic over-invalidation that grows with the number of updates
// since the client last listened.
type sigScheme struct {
	cfg SIGConfig
}

// SIG is the combined-signatures scheme with the default configuration.
func SIG() Scheme { return sigScheme{cfg: DefaultSIGConfig()} }

func (sigScheme) Name() string { return "sig" }

func (s sigScheme) NewServer(p Params) ServerSide {
	sv := &sigServer{cfg: s.cfg}
	sv.combined = make([]uint64, s.cfg.Groups)
	sv.folded = make(map[int32]int32)
	return sv
}

func (s sigScheme) NewClient(p Params) ClientSide { return &sigClient{cfg: s.cfg} }

// itemSig is the per-item signature: a hash of (id, version). In the
// real system it would be a checksum of the item's value; hashing the
// version models exactly the property that matters — it changes on every
// update.
func itemSig(cfg SIGConfig, id int32, version int32) uint64 {
	x := uint64(uint32(id))<<32 | uint64(uint32(version))
	x ^= 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if cfg.SigBits < 64 {
		x &= (1 << cfg.SigBits) - 1
	}
	return x
}

// memberOf reports whether item id belongs to group j; server and
// clients evaluate the same function.
func memberOf(cfg SIGConfig, id int32, j int) bool {
	x := uint64(uint32(id))*0x9e3779b97f4a7c15 + uint64(j)*0xda942042e4dd58b5
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 32
	return x%uint64(cfg.MemberDenom) == 0
}

type sigServer struct {
	cfg SIGConfig
	// combined holds the current K combined signatures, maintained
	// incrementally: folding an item update XORs out the old version's
	// signature and XORs in the new one for every group the item is in.
	combined []uint64
	// folded records the version of each item currently reflected in
	// combined (absent = version 0, the initial state whose signatures
	// the zero value already incorporates implicitly: we define the
	// initial combined signature as the XOR over version-0 signatures,
	// maintained lazily below).
	folded      map[int32]int32
	initialized bool
	lastFold    float64
}

// initCombined folds the version-0 signature of every item into every
// group it belongs to, so that combined always equals the XOR over
// current versions. Runs once, O(N*K/MemberDenom).
func (sv *sigServer) initCombined(n int) {
	for id := int32(0); id < int32(n); id++ {
		s := itemSig(sv.cfg, id, 0)
		for j := 0; j < sv.cfg.Groups; j++ {
			if memberOf(sv.cfg, id, j) {
				sv.combined[j] ^= s
			}
		}
	}
	sv.initialized = true
}

// BuildReport implements ServerSide.
func (sv *sigServer) BuildReport(d *db.Database, now float64) report.Report {
	if !sv.initialized {
		sv.initCombined(d.N())
	}
	// Fold every update since the previous build.
	d.MostRecent(d.N(), func(id int32, ts float64) bool {
		if ts <= sv.lastFold {
			return false
		}
		old := sv.folded[id]
		cur := d.Version(id)
		if cur == old {
			return true
		}
		delta := itemSig(sv.cfg, id, old) ^ itemSig(sv.cfg, id, cur)
		for j := 0; j < sv.cfg.Groups; j++ {
			if memberOf(sv.cfg, id, j) {
				sv.combined[j] ^= delta
			}
		}
		sv.folded[id] = cur
		return true
	})
	sv.lastFold = now
	sigs := make([]uint64, len(sv.combined))
	copy(sigs, sv.combined)
	return &report.SIGReport{T: now, Sigs: sigs, SigBits: sv.cfg.SigBits}
}

// HandleControl implements ServerSide; SIG clients never send validation
// traffic.
func (sv *sigServer) HandleControl(*db.Database, *ControlMsg, float64) *report.ValidityReport {
	panic("core: sig server received a control message")
}

// OnServerCrash implements CrashRecoverable: the incrementally maintained
// combined signatures and fold bookkeeping die with the server; the next
// BuildReport reconstructs them from the durable database.
func (sv *sigServer) OnServerCrash() {
	for j := range sv.combined {
		sv.combined[j] = 0
	}
	sv.folded = make(map[int32]int32)
	sv.initialized = false
	sv.lastFold = 0
}

// sigClientExt is the per-client SIG state, hung off ClientState.Ext.
type sigClientExt struct {
	prev    []uint64
	hasPrev bool
}

type sigClient struct {
	cfg SIGConfig
	// members memoizes each item's group list; membership is a pure
	// function of (item, group), so the table is shared by every client
	// served by this ClientSide (the kernel is single-threaded).
	members map[int32][]int16
	// ids is scratch for the cache walk, reused across clients.
	ids []int32
}

// groupsOf returns (memoized) the groups containing id.
func (c *sigClient) groupsOf(id int32) []int16 {
	if c.members == nil {
		c.members = make(map[int32][]int16)
	}
	if gs, ok := c.members[id]; ok {
		return gs
	}
	var gs []int16
	for j := 0; j < c.cfg.Groups; j++ {
		if memberOf(c.cfg, id, j) {
			gs = append(gs, int16(j))
		}
	}
	c.members[id] = gs
	return gs
}

// HandleReport implements ClientSide: diff the broadcast signatures
// against the previously heard ones; invalidate every cached item whose
// groups all mismatch (an item in no group at all is likewise dropped —
// it cannot be vouched for).
func (c *sigClient) HandleReport(st *ClientState, r report.Report, now float64) Outcome {
	sr, ok := r.(*report.SIGReport)
	if !ok {
		panic("core: sig client received " + r.Kind().String())
	}
	ext, _ := st.Ext.(*sigClientExt)
	if ext == nil {
		ext = &sigClientExt{}
		st.Ext = ext
	}
	degraded := epochGate(st, sr)
	if seqGate(st) {
		// A gap invalidates the diff baseline exactly like a restart
		// slept through: signatures may have changed and changed back
		// across the missing broadcasts.
		degraded = true
	}
	if degraded {
		// The rebuilt combined signatures are a pure function of the
		// durable database, but the client treats a restart it slept
		// through as losing its diff baseline: drop and restart from this
		// report, like a first hearing.
		out := degradeDrop(st, sr.T)
		ext.prev = append(ext.prev[:0], sr.Sigs...)
		ext.hasPrev = true
		return out
	}
	if !ext.hasPrev {
		// No baseline to diff against: nothing in the cache can be
		// vouched for.
		if st.Cache.Len() > 0 {
			dropAll(st)
		}
		ext.prev = append(ext.prev[:0], sr.Sigs...)
		ext.hasPrev = true
		validate(st, sr.T)
		return Outcome{Ready: true}
	}
	if len(ext.prev) != len(sr.Sigs) {
		panic("core: sig group count changed mid-run")
	}
	// Mismatched groups: some member was updated since the previous
	// report the client heard.
	changed := make([]uint64, (len(sr.Sigs)+63)/64)
	for j := range sr.Sigs {
		if ext.prev[j] != sr.Sigs[j] {
			changed[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	var stale []int32
	c.ids = st.Cache.IDs(c.ids[:0])
	for _, id := range c.ids {
		gs := c.groupsOf(id)
		vouched := false
		for _, j := range gs {
			if changed[j>>6]&(1<<(uint(j)&63)) == 0 {
				vouched = true
				break
			}
		}
		if len(gs) == 0 || !vouched {
			stale = append(stale, id)
		}
	}
	had := st.Cache.Len()
	for _, id := range stale {
		st.Cache.Invalidate(id)
	}
	st.Cache.TouchAll(sr.T)
	if had > 0 && st.Cache.Len() > 0 && len(stale) > 0 {
		st.Salvages++
	}
	ext.prev = append(ext.prev[:0], sr.Sigs...)
	validate(st, sr.T)
	return Outcome{Ready: true}
}

// HandleValidity implements ClientSide.
func (c *sigClient) HandleValidity(*ClientState, *report.ValidityReport, float64) Outcome {
	panic("core: sig client received a validity report")
}
