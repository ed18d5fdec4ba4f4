package ipds

import "repro/internal/obs"

// machineMetrics holds the registry handles the machine feeds. A
// zero-value machineMetrics (all nil metrics) is the disabled state:
// every update degrades to a nil-receiver no-op, so the OnBranch hot
// path pays one predictable branch when telemetry is off and one atomic
// add per counter when it is on.
type machineMetrics struct {
	branches      *obs.Counter
	verified      *obs.Counter
	updates       *obs.Counter
	batAccesses   *obs.Counter
	alarms        *obs.Counter
	strictRejects *obs.Counter
	pushes        *obs.Counter
	pops          *obs.Counter
	spillEvents   *obs.Counter
	fillEvents    *obs.Counter
	spillBits     *obs.Counter
	fillBits      *obs.Counter

	batWalk *obs.Histogram // BAT list nodes walked per branch event

	depth     *obs.Gauge // table-stack depth
	resident  *obs.Gauge // lowest on-chip frame index
	onchipBSV *obs.Gauge // resident BSV bits
	onchipBCV *obs.Gauge
	onchipBAT *obs.Gauge
}

// Instrument attaches the machine to a metrics registry; every counter
// in Stats gets a live `ipds_*` series, BAT walk lengths feed a
// power-of-two histogram, and the table-stack bookkeeping (depth,
// resident floor, on-chip bits — the invariant inputs) is exported as
// gauges. labels are name/value pairs appended to every metric name
// (e.g. "workload", "httpd"). A nil registry detaches.
func (m *Machine) Instrument(r *obs.Registry, labels ...string) {
	if r == nil {
		m.met = &machineMetrics{}
		return
	}
	n := func(base string) string { return obs.Name(base, labels...) }
	m.met = &machineMetrics{
		branches:      r.Counter(n("ipds_branches_total")),
		verified:      r.Counter(n("ipds_verified_total")),
		updates:       r.Counter(n("ipds_updates_total")),
		batAccesses:   r.Counter(n("ipds_bat_accesses_total")),
		alarms:        r.Counter(n("ipds_alarms_total")),
		strictRejects: r.Counter(n("ipds_strict_rejects_total")),
		pushes:        r.Counter(n("ipds_pushes_total")),
		pops:          r.Counter(n("ipds_pops_total")),
		spillEvents:   r.Counter(n("ipds_spill_events_total")),
		fillEvents:    r.Counter(n("ipds_fill_events_total")),
		spillBits:     r.Counter(n("ipds_spill_bits_total")),
		fillBits:      r.Counter(n("ipds_fill_bits_total")),
		batWalk:       r.Histogram(n("ipds_bat_walk_len")),
		depth:         r.Gauge(n("ipds_stack_depth")),
		resident:      r.Gauge(n("ipds_resident_floor")),
		onchipBSV:     r.Gauge(n("ipds_onchip_bsv_bits")),
		onchipBCV:     r.Gauge(n("ipds_onchip_bcv_bits")),
		onchipBAT:     r.Gauge(n("ipds_onchip_bat_bits")),
	}
	m.syncGauges()
}

// syncGauges publishes the table-stack bookkeeping. Called after every
// push/pop, outside the per-branch hot path.
func (m *Machine) syncGauges() {
	mm := m.met
	if mm == nil || mm.depth == nil {
		return
	}
	mm.depth.Set(int64(len(m.stack)))
	mm.resident.Set(int64(m.resident))
	mm.onchipBSV.Set(int64(m.bsvBits))
	mm.onchipBCV.Set(int64(m.bcvBits))
	mm.onchipBAT.Set(int64(m.batBits))
}
