// Package obs is the cluster's zero-dependency metrics layer: atomic
// counters and fixed-bucket latency histograms behind a registry with a
// stable name×label scheme. The same registry serves both backends — the
// deterministic simulator and the termnode daemons — so a dashboard reads
// one vocabulary regardless of where the cluster runs.
//
// The record path is allocation-free: a handle (Counter, Histogram) is
// resolved once at instrumentation-setup time — that
// lookup locks and may allocate — and every subsequent Add/Set/Observe
// is a handful of atomic operations on pre-existing memory. Hot loops
// (the wire send path, the WAL fsync path, the engine commit path) hold
// handles, never names.
//
// Label values are fixed at handle resolution. Vectors over a small
// integer label (per-shard, per-site) use Vec, which caches handles in
// an index-addressed table so the per-shard hot path stays
// allocation-free after a shard's first touch.
//
// Protocol latencies record thousandths of T (the delay bound), on the
// simulator's clock and the daemons' alike, so their quantiles are
// comparable across backends. Wall-native measurements (WAL fsync, link
// lateness) record microseconds and say so in the metric name.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the two metric shapes.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	if k == KindHistogram {
		return "histogram"
	}
	return "counter"
}

// Label is one name=value pair. Series within a family are keyed by
// their full sorted label set.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// NumBuckets is the fixed bucket count every histogram uses: powers of
// two from 1 up to 2^(NumBuckets-2), plus a final overflow bucket. With
// 28 buckets the top finite bound is ~67M ticks (~67000 T) — far past
// any latency this system produces — while bucket resolution near the
// interesting range (hundreds to tens of thousands of ticks) stays
// within a factor of two, good enough for p50/p95/p99 extraction.
const NumBuckets = 28

// BucketBound returns bucket i's inclusive upper bound; the last bucket
// is unbounded (+Inf).
func BucketBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// bucketOf returns the index of the bucket an observation lands in.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len-style: smallest i with v <= 1<<i.
	i := 0
	for b := uint64(1); b < uint64(v) && i < NumBuckets-1; b <<= 1 {
		i++
	}
	return i
}

// series is one labeled instance of a metric family. Counter values live
// in val; histograms add per-bucket counts and a sum.
type series struct {
	labels []Label // sorted by key
	key    string  // labelKey(labels)
	val    atomic.Int64
	hist   *histData
}

type histData struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// family is one named metric with its kind and every labeled series
// registered under it.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.Mutex
	series []*series // registration order, re-sorted at snapshot
}

// Registry holds metric families. A nil *Registry is a valid no-op target
// for every handle resolver — it returns nil handles, and nil handles'
// record methods do nothing — so instrumented code never branches on "is
// observability on".
//
// Families and series are found by a scan in registration order, not a
// map: a registry holds a dozen families of a few series each, lookups
// happen only when a handle is resolved, and the simulator builds one
// registry per site at every cluster Open — the sweeps open one cluster
// per transaction.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// family returns the named family, or nil. Called with r.mu held.
func (r *Registry) family(name string) *family {
	for _, f := range r.families {
		if f.name == name {
			return f
		}
	}
	return nil
}

// seed bulk-registers families that are known absent — one lock
// acquisition and one backing allocation for the whole batch. Families
// already present are re-resolved through getFamily for the kind check.
func (r *Registry) seed(entries []struct {
	name string
	kind Kind
	help string
}) {
	if r == nil {
		return
	}
	fs := make([]family, len(entries))
	r.mu.Lock()
	for i, e := range entries {
		if r.family(e.name) != nil {
			r.mu.Unlock()
			r.Help(e.name, e.kind, e.help)
			r.mu.Lock()
			continue
		}
		f := &fs[i]
		f.name, f.kind, f.help = e.name, e.kind, e.help
		r.families = append(r.families, f)
	}
	r.mu.Unlock()
}

// labelKey renders sorted labels canonically for series lookup.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	n := 0
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 2
	}
	b.Grow(n)
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	// Label sets are tiny (0–2 entries): insertion sort avoids
	// sort.Slice's closure and reflect-swap overhead, which showed up
	// in cluster-Open profiles (every handle resolution lands here).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key < out[j-1].Key; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// getFamily resolves or creates a family, enforcing kind stability: a
// name registered as one kind panics if re-resolved as another —
// that is a programming error in the metric catalog, not a runtime
// condition.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name)
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

// getSeries resolves or creates one labeled series within a family.
func (f *family) getSeries(labels []Label) *series {
	sorted := sortLabels(labels)
	key := labelKey(sorted)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		if s.key == key {
			return s
		}
	}
	s := &series{labels: sorted, key: key}
	if f.kind == KindHistogram {
		s.hist = &histData{}
	}
	f.series = append(f.series, s)
	return s
}

// Counter is a monotonically increasing count. A nil Counter ignores
// Add — instrumented code threads handles without nil checks.
type Counter series

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.val.Add(int64(n))
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return uint64(c.val.Load())
}

// Histogram is a fixed-bucket distribution of integer-valued
// observations (latency in ticks or microseconds). Observe is
// allocation-free. A nil Histogram ignores Observe.
type Histogram series

// Observe records one value. Negative values clamp to zero (a clock
// stepping backwards must not corrupt bucket 2^63).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	d := h.hist
	d.buckets[bucketOf(v)].Add(1)
	d.count.Add(1)
	d.sum.Add(v)
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.hist.count.Load()
}

// Counter resolves a counter handle; registration is idempotent — the
// same name and label set always return a handle onto the same series.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return (*Counter)(r.getFamily(name, "", KindCounter).getSeries(labels))
}

// Histogram resolves a histogram handle.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return (*Histogram)(r.getFamily(name, "", KindHistogram).getSeries(labels))
}

// Help sets a family's help string (registering the family if needed),
// used by the catalog pre-registration so /metrics carries
// documentation even for families no traffic has touched yet.
func (r *Registry) Help(name string, kind Kind, help string) {
	if r == nil {
		return
	}
	r.getFamily(name, help, kind)
}

// --- vectors ---

// CounterVec is a counter family spread over one small-integer label
// (shard or site index). Handles are cached in an index-addressed table
// behind an atomic pointer, so At is allocation- and lock-free after an
// index's first touch — the per-shard hot path.
type CounterVec struct {
	r     *Registry
	name  string
	label string
	fixed []Label
	tab   atomic.Pointer[[]*Counter]
	mu    sync.Mutex
}

// NewCounterVec builds a vector over the given label key; every counter
// in it also carries the fixed labels.
func (r *Registry) NewCounterVec(name, label string, fixed ...Label) *CounterVec {
	if r == nil {
		return nil
	}
	r.getFamily(name, "", KindCounter)
	return &CounterVec{r: r, name: name, label: label, fixed: fixed}
}

// At returns the counter for index i (i < 0 maps to 0).
func (v *CounterVec) At(i int) *Counter {
	if v == nil {
		return nil
	}
	if i < 0 {
		i = 0
	}
	if tab := v.tab.Load(); tab != nil && i < len(*tab) {
		return (*tab)[i]
	}
	return v.grow(i)
}

func (v *CounterVec) grow(i int) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	var cur []*Counter
	if tab := v.tab.Load(); tab != nil {
		cur = *tab
	}
	if i < len(cur) {
		return cur[i]
	}
	next := make([]*Counter, i+1)
	copy(next, cur)
	for j := len(cur); j <= i; j++ {
		next[j] = v.r.Counter(v.name, append([]Label{L(v.label, itoa(j))}, v.fixed...)...)
	}
	v.tab.Store(&next)
	return next[i]
}

// HistogramVec is the histogram analog of CounterVec.
type HistogramVec struct {
	r     *Registry
	name  string
	label string
	tab   atomic.Pointer[[]*Histogram]
	mu    sync.Mutex
}

// NewHistogramVec builds a histogram vector over the given label key.
func (r *Registry) NewHistogramVec(name, label string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.getFamily(name, "", KindHistogram)
	return &HistogramVec{r: r, name: name, label: label}
}

// At returns the histogram for index i (i < 0 maps to 0).
func (v *HistogramVec) At(i int) *Histogram {
	if v == nil {
		return nil
	}
	if i < 0 {
		i = 0
	}
	if tab := v.tab.Load(); tab != nil && i < len(*tab) {
		return (*tab)[i]
	}
	return v.grow(i)
}

func (v *HistogramVec) grow(i int) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	var cur []*Histogram
	if tab := v.tab.Load(); tab != nil {
		cur = *tab
	}
	if i < len(cur) {
		return cur[i]
	}
	next := make([]*Histogram, i+1)
	copy(next, cur)
	for j := len(cur); j <= i; j++ {
		next[j] = v.r.Histogram(v.name, L(v.label, itoa(j)))
	}
	v.tab.Store(&next)
	return next[i]
}

// itoa avoids strconv for the tiny non-negative integers label values
// use (and keeps the package dependency-free in spirit; registration is
// not a hot path, this is just self-containment).
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// --- snapshots ---

// SeriesSnap is one labeled series frozen at snapshot time. Counters
// carry Value; histograms carry Count/Sum/Buckets.
type SeriesSnap struct {
	Labels  []Label  `json:"labels,omitempty"`
	Value   int64    `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Label returns the value of the named label ("" if absent).
func (s *SeriesSnap) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// FamilySnap is one metric family frozen at snapshot time.
type FamilySnap struct {
	Name   string       `json:"name"`
	Kind   Kind         `json:"kind"`
	Help   string       `json:"help,omitempty"`
	Series []SeriesSnap `json:"series,omitempty"`
}

// Snapshot is a registry frozen at one instant — the Cluster.Metrics()
// return type, the daemon /metricsjson payload, and the unit the net
// backend merges across daemons.
type Snapshot struct {
	Families []FamilySnap `json:"families"`
}

// Snapshot freezes the registry. Families and series are sorted by
// name and label key, so two registries instrumented identically
// snapshot identically regardless of registration order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	snap := Snapshot{Families: make([]FamilySnap, 0, len(fams))}
	for _, f := range fams {
		f.mu.Lock()
		fs := FamilySnap{Name: f.name, Kind: f.kind, Help: f.help,
			Series: make([]SeriesSnap, 0, len(f.series))}
		for _, s := range f.series {
			ss := SeriesSnap{Labels: s.labels}
			if f.kind == KindHistogram {
				ss.Count = s.hist.count.Load()
				ss.Sum = s.hist.sum.Load()
				ss.Buckets = make([]uint64, NumBuckets)
				for i := range ss.Buckets {
					ss.Buckets[i] = s.hist.buckets[i].Load()
				}
			} else {
				ss.Value = s.val.Load()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		sort.Slice(fs.Series, func(i, j int) bool {
			return labelKey(fs.Series[i].Labels) < labelKey(fs.Series[j].Labels)
		})
		snap.Families = append(snap.Families, fs)
	}
	sort.Slice(snap.Families, func(i, j int) bool {
		return snap.Families[i].Name < snap.Families[j].Name
	})
	return snap
}

// Names returns the sorted family names — the unit the backend-parity
// test compares.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.Families))
	for _, f := range s.Families {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// Family returns the named family snapshot (nil if absent).
func (s Snapshot) Family(name string) *FamilySnap {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// find returns the series matching every given label (extra labels on
// the series are allowed), or nil.
func (f *FamilySnap) find(labels []Label) *SeriesSnap {
	for i := range f.Series {
		ok := true
		for _, want := range labels {
			if f.Series[i].Label(want.Key) != want.Value {
				ok = false
				break
			}
		}
		if ok {
			return &f.Series[i]
		}
	}
	return nil
}

// Value returns a counter series value (0 if absent). For
// histograms it returns the observation count.
func (s Snapshot) Value(name string, labels ...Label) int64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	ss := f.find(labels)
	if ss == nil {
		return 0
	}
	if f.Kind == KindHistogram {
		return int64(ss.Count)
	}
	return ss.Value
}

// Total sums a family's series values across all label sets — counters
// sum Value, histograms sum Count.
func (s Snapshot) Total(name string) int64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var total int64
	for i := range f.Series {
		if f.Kind == KindHistogram {
			total += int64(f.Series[i].Count)
		} else {
			total += f.Series[i].Value
		}
	}
	return total
}

// Quantile extracts the q-quantile (0 < q <= 1) from a histogram
// series, merging every series of the family that matches the given
// labels. The estimate interpolates linearly within the winning
// bucket's bounds — with power-of-two buckets the worst-case error is
// a factor of two, which is what fixed-bucket histograms buy you.
// Returns 0 when the family is absent or empty.
func (s Snapshot) Quantile(name string, q float64, labels ...Label) float64 {
	f := s.Family(name)
	if f == nil || f.Kind != KindHistogram {
		return 0
	}
	var merged [NumBuckets]uint64
	var count uint64
	for i := range f.Series {
		ss := &f.Series[i]
		match := true
		for _, want := range labels {
			if ss.Label(want.Key) != want.Value {
				match = false
				break
			}
		}
		if !match || len(ss.Buckets) != NumBuckets {
			continue
		}
		for b, n := range ss.Buckets {
			merged[b] += n
		}
		count += ss.Count
	}
	return quantileOf(merged[:], count, q)
}

func quantileOf(buckets []uint64, count uint64, q float64) float64 {
	if count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	var cum uint64
	for i, n := range buckets {
		prev := cum
		cum += n
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			if math.IsInf(hi, 1) {
				return lo // overflow bucket: report its lower bound
			}
			if n == 0 {
				return hi
			}
			frac := (rank - float64(prev)) / float64(n)
			return lo + frac*(hi-lo)
		}
	}
	return BucketBound(len(buckets) - 1)
}

// Merge folds other into s: counters and histogram buckets/counts/sums
// add. Families or series present only in other are appended. Sorting is
// restored afterwards.
func (s *Snapshot) Merge(other Snapshot) {
	for _, of := range other.Families {
		f := s.Family(of.Name)
		if f == nil {
			cp := of
			cp.Series = append([]SeriesSnap(nil), of.Series...)
			s.Families = append(s.Families, cp)
			continue
		}
		for _, oss := range of.Series {
			ss := f.find(oss.Labels)
			if ss == nil || len(ss.Labels) != len(oss.Labels) {
				f.Series = append(f.Series, oss)
				continue
			}
			ss.Value += oss.Value
			ss.Count += oss.Count
			ss.Sum += oss.Sum
			if len(ss.Buckets) == len(oss.Buckets) {
				for i := range oss.Buckets {
					ss.Buckets[i] += oss.Buckets[i]
				}
			} else if len(ss.Buckets) == 0 {
				ss.Buckets = append([]uint64(nil), oss.Buckets...)
			}
		}
		sort.Slice(f.Series, func(i, j int) bool {
			return labelKey(f.Series[i].Labels) < labelKey(f.Series[j].Labels)
		})
	}
	sort.Slice(s.Families, func(i, j int) bool {
		return s.Families[i].Name < s.Families[j].Name
	})
}

// --- Prometheus text exposition ---

// WritePrometheus renders the snapshot in the Prometheus text format
// (version 0.0.4): HELP/TYPE headers per family, one line per series,
// histograms expanded into cumulative _bucket{le=...} lines plus _sum
// and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for i := range f.Series {
			ss := &f.Series[i]
			if f.Kind == KindHistogram {
				writePromHistogram(&b, f.Name, ss)
			} else {
				b.WriteString(f.Name)
				writePromLabels(&b, ss.Labels, "")
				fmt.Fprintf(&b, " %d\n", ss.Value)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromLabels(b *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", l.Key, l.Value)
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "le=%q", le)
	}
	b.WriteByte('}')
}

func writePromHistogram(b *strings.Builder, name string, ss *SeriesSnap) {
	var cum uint64
	for i, n := range ss.Buckets {
		cum += n
		le := "+Inf"
		if bound := BucketBound(i); !math.IsInf(bound, 1) {
			le = fmt.Sprintf("%g", bound)
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		writePromLabels(b, ss.Labels, le)
		fmt.Fprintf(b, " %d\n", cum)
	}
	b.WriteString(name)
	b.WriteString("_sum")
	writePromLabels(b, ss.Labels, "")
	fmt.Fprintf(b, " %d\n", ss.Sum)
	b.WriteString(name)
	b.WriteString("_count")
	writePromLabels(b, ss.Labels, "")
	fmt.Fprintf(b, " %d\n", ss.Count)
}
