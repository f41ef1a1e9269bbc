package check

import "strings"

// Properties is a bitmask selecting which LHG properties a verification
// run computes. The zero value means "all of them" — the full report —
// so existing callers and the zero Options keep the historical behavior.
//
// Selecting a subset skips whole phases: a P4-only run never issues a
// max-flow probe, and a P1|P2-only run skips the all-sources BFS sweep.
// P5 (regularity) rides along for free — it is a degree scan — and is
// always reported.
type Properties uint8

const (
	// PropNodeConnectivity computes the exact κ(G) and P1 (κ >= k).
	PropNodeConnectivity Properties = 1 << iota
	// PropLinkConnectivity computes the exact λ(G) and P2 (λ >= k).
	PropLinkConnectivity
	// PropLinkMinimality sweeps every edge for P3. It needs κ and λ, so
	// selecting it pulls in PropNodeConnectivity and PropLinkConnectivity.
	PropLinkMinimality
	// PropDiameter runs the all-sources distance sweep for P4 and the
	// average path length.
	PropDiameter
	// PropRestrictedEdge computes the restricted edge connectivity λ′(G):
	// the smallest edge cut that disconnects G without isolating a node
	// (-1 when undefined). Opt-in — it is NOT part of PropAll, so default
	// reports are unchanged.
	PropRestrictedEdge
	// PropSuperEdge decides super edge connectivity: every minimum edge
	// cut isolates a single node. It needs λ and λ′, so selecting it pulls
	// in PropLinkConnectivity and PropRestrictedEdge. Opt-in like
	// PropRestrictedEdge.
	PropSuperEdge
)

// PropAll selects every classic property — the full report. The extended
// fault-tolerance measures (PropRestrictedEdge, PropSuperEdge) are opt-in
// additions on top, so the zero Options keeps the historical report shape.
const PropAll = PropNodeConnectivity | PropLinkConnectivity | PropLinkMinimality | PropDiameter

// Has reports whether every property in q is selected in p.
func (p Properties) Has(q Properties) bool { return p&q == q }

// normalized resolves the zero value to PropAll and adds the connectivity
// prerequisites of the minimality sweep and the super-edge decision.
func (p Properties) normalized() Properties {
	if p == 0 {
		return PropAll
	}
	if p.Has(PropLinkMinimality) {
		p |= PropNodeConnectivity | PropLinkConnectivity
	}
	if p.Has(PropSuperEdge) {
		p |= PropRestrictedEdge | PropLinkConnectivity
	}
	return p
}

// String renders the selection as "P1|P2|P3|P4" (or "none").
func (p Properties) String() string {
	var parts []string
	if p.Has(PropNodeConnectivity) {
		parts = append(parts, "P1")
	}
	if p.Has(PropLinkConnectivity) {
		parts = append(parts, "P2")
	}
	if p.Has(PropLinkMinimality) {
		parts = append(parts, "P3")
	}
	if p.Has(PropDiameter) {
		parts = append(parts, "P4")
	}
	if p.Has(PropRestrictedEdge) {
		parts = append(parts, "P2r")
	}
	if p.Has(PropSuperEdge) {
		parts = append(parts, "P2s")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Policy selects when an optional, result-preserving fast path of the κ/λ
// probe phases runs: the sparse certificate (Options.Sparsify, see
// SparseProbeView) or the Monte Carlo cut prescreen (Options.Prescreen,
// see prescreenHints). Neither path changes any reported value or
// verdict. The zero value is the automatic policy, so the zero Options
// keeps both fast paths on where they pay for themselves.
type Policy uint8

const (
	// Auto runs the fast path when the input is large or dense enough for
	// it to pay for itself: m > SparsifyCutoff·k·n (and a strictly smaller
	// certificate) for sparsification, n >= PrescreenCutoff for the
	// prescreen. This is the default.
	Auto Policy = iota
	// Off never runs the fast path: the reference side of the
	// differential tests.
	Off
	// Always runs the fast path regardless of size, so tests can exercise
	// it on small inputs.
	Always
)

func (p Policy) String() string {
	switch p {
	case Auto:
		return "auto"
	case Off:
		return "off"
	case Always:
		return "always"
	}
	return "policy(?)"
}

// Options configures a verification run. The zero value — all properties,
// GOMAXPROCS workers, automatic sparsification and prescreening — is the
// right default for interactive and service use; set Workers to 1 for the
// deterministic-serial path (the report is bit-identical either way).
type Options struct {
	// Workers is the goroutine budget for the probe fan-out; <= 0 means
	// GOMAXPROCS, 1 runs serially.
	Workers int
	// Props selects the properties to compute; zero means PropAll.
	Props Properties
	// Sparsify is the sparse-certificate policy for the κ/λ probes.
	Sparsify Policy
	// Prescreen is the Monte Carlo cut-prescreen policy for the κ/λ
	// probes.
	Prescreen Policy
}
