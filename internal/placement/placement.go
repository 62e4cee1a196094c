// Package placement is the cluster's elastic data-placement layer: a
// versioned shard directory, and the one place that maps keys and
// transaction bodies to shards, replicas and participants.
//
// Keys hash (FNV-1a) into a fixed number of shards. An Assignment maps
// every shard to an explicit replica set over the current membership;
// because it is data rather than ring arithmetic, sites can join, leave,
// or shed individual shards. A Directory stacks
// Assignments into epochs: every transaction is admitted under the epoch
// current at submission and terminates under that epoch even if the map
// moves on (the Aerospike "regime" idea from LARK), and a rebalance
// becomes an ordinary epoch transition — prepared as a pending
// assignment, made visible when the cluster's epoch-bump transaction
// commits through the commit protocol itself (Sutra & Shapiro's
// protocol-driven replica-set change).
//
// The package is pure bookkeeping: it decides who should host what and
// records when each decision took effect. Moving the bytes and running
// the epoch-bump transaction is internal/cluster's job.
package placement

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"termproto/internal/db/engine"
	"termproto/internal/proto"
)

// Epoch numbers directory versions; 0 is the initial assignment.
type Epoch uint64

// ReservedPrefix is the key range holding replicated directory records —
// inside the engine's meta range, so every site hosts it, catch-up never
// deletes it, and convergence checks ignore it. Epoch e's assignment
// lives at EpochKey(e); application keys never collide with it because
// engine.MetaPrefix is not valid UTF-8 text.
const ReservedPrefix = engine.MetaPrefix + "dir/"

// IsReserved reports whether key lies in the directory's reserved range.
func IsReserved(key string) bool {
	return len(key) >= len(ReservedPrefix) && key[:len(ReservedPrefix)] == ReservedPrefix
}

// EpochKey returns the reserved key holding epoch e's assignment record.
// The 16-digit zero-padded hex keeps the keys in epoch order under the
// engine's byte-ordered iteration.
func EpochKey(e Epoch) string {
	return ReservedPrefix + fmt.Sprintf("%016x", uint64(e))
}

// ParseEpochKey extracts the epoch from a reserved directory key; ok is
// false for keys outside the range or with a malformed suffix.
func ParseEpochKey(key string) (Epoch, bool) {
	if !IsReserved(key) {
		return 0, false
	}
	suffix := key[len(ReservedPrefix):]
	if len(suffix) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(suffix, 16, 64)
	if err != nil {
		return 0, false
	}
	return Epoch(v), true
}

// Assignment is one immutable version of the shard directory: an explicit
// replica set per shard over a fixed membership. Replica sets are in
// preference order (primary first). Construct with Arithmetic,
// ArithmeticOver, or a transformation (WithJoin, WithLeave, WithMove);
// the zero value is not usable.
type Assignment struct {
	replicas [][]proto.SiteID
	members  []proto.SiteID // ascending
	rf       int
}

// Arithmetic builds the initial assignment over sites 1..sites: shard s
// lives at rf consecutive sites of the ring, primary first.
func Arithmetic(shards, rf, sites int) (*Assignment, error) {
	members := make([]proto.SiteID, sites)
	for i := range members {
		members[i] = proto.SiteID(i + 1)
	}
	return ArithmeticOver(shards, rf, members)
}

// ArithmeticOver builds the initial assignment over an explicit member
// subset: shard s lives at rf consecutive members of the ring, primary
// first. Sites outside members host nothing until they Join.
func ArithmeticOver(shards, rf int, members []proto.SiteID) (*Assignment, error) {
	if shards < 1 {
		return nil, fmt.Errorf("placement: need at least 1 shard, got %d", shards)
	}
	if rf < 1 {
		return nil, fmt.Errorf("placement: replication factor %d < 1", rf)
	}
	ms := append([]proto.SiteID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	for i, id := range ms {
		if id < 1 {
			return nil, fmt.Errorf("placement: invalid member %d", id)
		}
		if i > 0 && ms[i-1] == id {
			return nil, fmt.Errorf("placement: duplicate member %d", id)
		}
	}
	if rf > len(ms) {
		return nil, fmt.Errorf("placement: replication factor %d exceeds %d members", rf, len(ms))
	}
	a := &Assignment{replicas: make([][]proto.SiteID, shards), members: ms, rf: rf}
	for s := 0; s < shards; s++ {
		set := make([]proto.SiteID, rf)
		for i := 0; i < rf; i++ {
			set[i] = ms[(s+i)%len(ms)]
		}
		a.replicas[s] = set
	}
	return a, nil
}

// Shards returns the shard count.
func (a *Assignment) Shards() int { return len(a.replicas) }

// ReplicationFactor returns the replicas per shard.
func (a *Assignment) ReplicationFactor() int { return a.rf }

// Members returns the sites currently holding data, ascending.
func (a *Assignment) Members() []proto.SiteID {
	return append([]proto.SiteID(nil), a.members...)
}

// IsMember reports whether site currently holds data.
func (a *Assignment) IsMember(site proto.SiteID) bool {
	i := sort.Search(len(a.members), func(i int) bool { return a.members[i] >= site })
	return i < len(a.members) && a.members[i] == site
}

// MaxSite returns the highest-numbered member (for range validation).
func (a *Assignment) MaxSite() proto.SiteID {
	if len(a.members) == 0 {
		return 0
	}
	return a.members[len(a.members)-1]
}

// String renders the assignment parameters.
func (a *Assignment) String() string {
	return fmt.Sprintf("shards=%d rf=%d members=%v", len(a.replicas), a.rf, a.members)
}

// ShardOf maps a key to its shard (FNV-1a over the key bytes). It depends
// only on the shard count, so every epoch of a directory hashes alike.
func (a *Assignment) ShardOf(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(a.replicas)))
}

// Replicas returns the shard's replica set in preference order (primary
// first). The returned slice is a copy.
func (a *Assignment) Replicas(shard int) []proto.SiteID {
	return append([]proto.SiteID(nil), a.replicas[shard]...)
}

// Primary returns the shard's primary site.
func (a *Assignment) Primary(shard int) proto.SiteID { return a.replicas[shard][0] }

// Hosts reports whether site replicates the shard holding key.
func (a *Assignment) Hosts(site proto.SiteID, key string) bool {
	for _, id := range a.replicas[a.ShardOf(key)] {
		if id == site {
			return true
		}
	}
	return false
}

// DataShards returns the shards of a transaction body's data keys, each
// once, in the order the ops first name them. OpEpoch records, meta keys
// and empty keys carry no data and are skipped: directory records
// replicate to every site on their own schedule. An undecodable or
// keyless body, or a nil assignment (full replication), returns nil.
func (a *Assignment) DataShards(payload []byte) []int {
	if a == nil {
		return nil
	}
	ops, err := engine.DecodeOps(payload)
	if err != nil {
		return nil
	}
	var out []int
	for _, op := range ops {
		if op.Kind == engine.OpEpoch || engine.IsMetaKey(op.Key) || op.Key == "" {
			continue
		}
		if s := a.ShardOf(op.Key); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// ParticipantsFor derives a transaction's participant set from its
// payload: the ascending union of the replica sets of its DataShards.
// A body with no data shards returns nil and the caller falls back to
// broadcast.
func (a *Assignment) ParticipantsFor(payload []byte) []proto.SiteID {
	var out []proto.SiteID
	for _, s := range a.DataShards(payload) {
		for _, id := range a.replicas[s] {
			if i, found := slices.BinarySearch(out, id); !found {
				out = slices.Insert(out, i, id)
			}
		}
	}
	return out
}

// load counts replicas hosted per member.
func (a *Assignment) load() map[proto.SiteID]int {
	out := make(map[proto.SiteID]int, len(a.members))
	for _, id := range a.members {
		out[id] = 0
	}
	for _, set := range a.replicas {
		for _, id := range set {
			out[id]++
		}
	}
	return out
}

// clone deep-copies the assignment for transformation.
func (a *Assignment) clone() *Assignment {
	n := &Assignment{
		replicas: make([][]proto.SiteID, len(a.replicas)),
		members:  append([]proto.SiteID(nil), a.members...),
		rf:       a.rf,
	}
	for s, set := range a.replicas {
		n.replicas[s] = append([]proto.SiteID(nil), set...)
	}
	return n
}

// WithJoin returns the assignment after site joins the membership: shard
// replicas migrate from the most-loaded members onto the new site until
// it carries its fair share. Deterministic: shards are considered in
// ascending order, ties broken by lowest site ID.
func (a *Assignment) WithJoin(site proto.SiteID) (*Assignment, error) {
	if site < 1 {
		return nil, fmt.Errorf("placement: invalid site %d", site)
	}
	if a.IsMember(site) {
		return nil, fmt.Errorf("placement: site %d is already a member", site)
	}
	n := a.clone()
	i := sort.Search(len(n.members), func(i int) bool { return n.members[i] >= site })
	n.members = append(n.members, 0)
	copy(n.members[i+1:], n.members[i:])
	n.members[i] = site

	// Fair share of the shards*rf replica slots for the new member.
	target := len(n.replicas) * n.rf / len(n.members)
	load := n.load()
	for s := 0; s < len(n.replicas) && load[site] < target; s++ {
		// Hand this shard's most-loaded replica to the new site, unless
		// the move would not actually improve balance.
		best := 0
		for j, id := range n.replicas[s] {
			cur := n.replicas[s][best]
			if load[id] > load[cur] || (load[id] == load[cur] && id < cur) {
				best = j
			}
		}
		donor := n.replicas[s][best]
		if load[donor] <= load[site]+1 {
			continue
		}
		load[donor]--
		n.replicas[s][best] = site
		load[site]++
	}
	return n, nil
}

// WithLeave returns the assignment after site leaves: every replica it
// hosts moves to the least-loaded remaining member not already in that
// shard's replica set. Fails if the remaining membership cannot sustain
// the replication factor.
func (a *Assignment) WithLeave(site proto.SiteID) (*Assignment, error) {
	if !a.IsMember(site) {
		return nil, fmt.Errorf("placement: site %d is not a member", site)
	}
	if len(a.members)-1 < a.rf {
		return nil, fmt.Errorf("placement: %d members cannot sustain rf=%d after site %d leaves",
			len(a.members)-1, a.rf, site)
	}
	n := a.clone()
	for i, id := range n.members {
		if id == site {
			n.members = append(n.members[:i], n.members[i+1:]...)
			break
		}
	}
	load := n.load()
	delete(load, site)
	for s := range n.replicas {
		for j, id := range n.replicas[s] {
			if id != site {
				continue
			}
			repl, err := n.replacement(s, load)
			if err != nil {
				return nil, err
			}
			n.replicas[s][j] = repl
			load[repl]++
		}
	}
	return n, nil
}

// replacement picks the least-loaded member outside shard s's replica
// set (ties broken by lowest site ID).
func (n *Assignment) replacement(s int, load map[proto.SiteID]int) (proto.SiteID, error) {
	var best proto.SiteID
	for _, id := range n.members {
		in := false
		for _, r := range n.replicas[s] {
			if r == id {
				in = true
				break
			}
		}
		if in {
			continue
		}
		if best == 0 || load[id] < load[best] {
			best = id
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("placement: no replacement replica available for shard %d", s)
	}
	return best, nil
}

// WithMove returns the assignment after one explicit shard move: the
// replica of shard at `from` is handed to `to`. `to` must be a member not
// already replicating the shard.
func (a *Assignment) WithMove(shard int, from, to proto.SiteID) (*Assignment, error) {
	if shard < 0 || shard >= len(a.replicas) {
		return nil, fmt.Errorf("placement: shard %d out of range 0..%d", shard, len(a.replicas)-1)
	}
	if !a.IsMember(to) {
		return nil, fmt.Errorf("placement: destination %d is not a member", to)
	}
	n := a.clone()
	idx := -1
	for j, id := range n.replicas[shard] {
		if id == to {
			return nil, fmt.Errorf("placement: site %d already replicates shard %d", to, shard)
		}
		if id == from {
			idx = j
		}
	}
	if idx == -1 {
		return nil, fmt.Errorf("placement: site %d does not replicate shard %d", from, shard)
	}
	n.replicas[shard][idx] = to
	return n, nil
}

// Move is one shard whose replica set changes between two assignments.
type Move struct {
	Shard int
	// Old and New are the shard's replica sets before and after.
	Old, New []proto.SiteID
	// Added and Removed are the sites gaining and losing the shard.
	Added, Removed []proto.SiteID
}

// Diff lists the shards whose replica sets differ between two
// assignments, ascending by shard.
func Diff(old, next *Assignment) []Move {
	var out []Move
	for s := 0; s < old.Shards() && s < next.Shards(); s++ {
		o, n := old.replicas[s], next.replicas[s]
		mv := Move{Shard: s, Old: append([]proto.SiteID(nil), o...), New: append([]proto.SiteID(nil), n...)}
		for _, id := range n {
			if !containsSite(o, id) {
				mv.Added = append(mv.Added, id)
			}
		}
		for _, id := range o {
			if !containsSite(n, id) {
				mv.Removed = append(mv.Removed, id)
			}
		}
		if len(mv.Added) > 0 || len(mv.Removed) > 0 {
			out = append(out, mv)
		}
	}
	return out
}

func containsSite(ids []proto.SiteID, id proto.SiteID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Directory is the versioned shard directory: an epoch-stamped stack of
// assignments plus at most one pending (mid-migration) assignment. All
// methods are safe for concurrent use.
type Directory struct {
	mu       sync.RWMutex
	versions []*Assignment
	pending  *Assignment
}

// NewDirectory opens a directory at epoch 0 with the given initial
// assignment.
func NewDirectory(initial *Assignment) *Directory {
	if initial == nil {
		panic("placement: nil initial assignment")
	}
	return &Directory{versions: []*Assignment{initial}}
}

// Epoch returns the current epoch.
func (d *Directory) Epoch() Epoch {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Epoch(len(d.versions) - 1)
}

// Current returns the current epoch and its assignment.
func (d *Directory) Current() (Epoch, *Assignment) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Epoch(len(d.versions) - 1), d.versions[len(d.versions)-1]
}

// At returns the assignment in force at the given epoch (nil if the
// epoch does not exist) — the admission-epoch lookup: a transaction
// admitted under epoch N resolves its participants against At(N) no
// matter how far the directory has advanced since.
func (d *Directory) At(e Epoch) *Assignment {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(e) >= len(d.versions) {
		return nil
	}
	return d.versions[e]
}

// Hosts reports whether site hosts key under the current or pending
// assignment. The union matters mid-migration: a new replica must accept
// the shard's keys while the copy is in flight, before the epoch bump
// makes the move official.
func (d *Directory) Hosts(site proto.SiteID, key string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.versions[len(d.versions)-1].Hosts(site, key) {
		return true
	}
	return d.pending != nil && d.pending.Hosts(site, key)
}

// SetPending installs the assignment a migration is copying toward. At
// most one migration may be in flight.
func (d *Directory) SetPending(a *Assignment) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending != nil {
		return fmt.Errorf("placement: a migration is already in progress")
	}
	d.pending = a
	return nil
}

// Pending returns the in-flight assignment, if any.
func (d *Directory) Pending() *Assignment {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pending
}

// CommitPending advances the directory to the pending assignment (the
// epoch-bump transaction committed) and returns the new epoch.
func (d *Directory) CommitPending() Epoch {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending == nil {
		return Epoch(len(d.versions) - 1)
	}
	d.versions = append(d.versions, d.pending)
	d.pending = nil
	return Epoch(len(d.versions) - 1)
}

// ClearPending abandons the in-flight assignment (the epoch-bump
// transaction aborted, or the copy failed).
func (d *Directory) ClearPending() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pending = nil
}

// Equal reports whether two assignments place every shard identically
// over the same membership.
func (a *Assignment) Equal(b *Assignment) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.rf != b.rf || len(a.replicas) != len(b.replicas) || len(a.members) != len(b.members) {
		return false
	}
	for i, id := range a.members {
		if b.members[i] != id {
			return false
		}
	}
	for s, set := range a.replicas {
		if len(b.replicas[s]) != len(set) {
			return false
		}
		for i, id := range set {
			if b.replicas[s][i] != id {
				return false
			}
		}
	}
	return true
}

// Directory-record wire format (the value stored at EpochKey(e)):
//
//	version(u8=1) rf(u32) shards(u32) members(u32 count, u32 each)
//	then per shard: u16 replica count, u32 per replica
//
// Decode validates every count and length in 64-bit arithmetic before
// allocating, mirroring engine.DecodeOps: hostile inputs return
// ErrBadRecord, never panic or over-allocate.
const assignmentCodecVersion = 1

// maxDirectoryDim bounds shard and member counts a decoded record may
// claim — far above any real deployment, low enough that a hostile
// record cannot demand gigabytes.
const maxDirectoryDim = 1 << 20

// ErrBadRecord reports an undecodable or inconsistent directory record.
var ErrBadRecord = errors.New("placement: bad directory record")

// EncodeAssignment serializes an assignment as a directory record value.
func EncodeAssignment(a *Assignment) []byte {
	out := []byte{assignmentCodecVersion}
	out = binary.BigEndian.AppendUint32(out, uint32(a.rf))
	out = binary.BigEndian.AppendUint32(out, uint32(len(a.replicas)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(a.members)))
	for _, id := range a.members {
		out = binary.BigEndian.AppendUint32(out, uint32(id))
	}
	for _, set := range a.replicas {
		out = binary.BigEndian.AppendUint16(out, uint16(len(set)))
		for _, id := range set {
			out = binary.BigEndian.AppendUint32(out, uint32(id))
		}
	}
	return out
}

// DecodeAssignment parses a directory record value. Beyond wire-shape
// checks it enforces the package invariants — members ascending and
// unique, every replica a member, rf sustained by the membership — so a
// record that decodes is a usable assignment.
func DecodeAssignment(data []byte) (*Assignment, error) {
	if len(data) < 13 || data[0] != assignmentCodecVersion {
		return nil, ErrBadRecord
	}
	rf := binary.BigEndian.Uint32(data[1:5])
	shards := binary.BigEndian.Uint32(data[5:9])
	nMembers := binary.BigEndian.Uint32(data[9:13])
	data = data[13:]
	if rf < 1 || shards < 1 || shards > maxDirectoryDim ||
		nMembers < 1 || nMembers > maxDirectoryDim || uint64(rf) > uint64(nMembers) {
		return nil, ErrBadRecord
	}
	if uint64(len(data)) < 4*uint64(nMembers) {
		return nil, ErrBadRecord
	}
	a := &Assignment{
		replicas: make([][]proto.SiteID, shards),
		members:  make([]proto.SiteID, nMembers),
		rf:       int(rf),
	}
	for i := range a.members {
		id := proto.SiteID(binary.BigEndian.Uint32(data[4*i:]))
		if id < 1 || (i > 0 && a.members[i-1] >= id) {
			return nil, ErrBadRecord
		}
		a.members[i] = id
	}
	data = data[4*nMembers:]
	isMember := make(map[proto.SiteID]bool, nMembers)
	for _, id := range a.members {
		isMember[id] = true
	}
	for s := range a.replicas {
		if len(data) < 2 {
			return nil, ErrBadRecord
		}
		n := binary.BigEndian.Uint16(data[0:2])
		data = data[2:]
		if uint32(n) != rf || uint64(len(data)) < 4*uint64(n) {
			return nil, ErrBadRecord
		}
		set := make([]proto.SiteID, n)
		for i := range set {
			id := proto.SiteID(binary.BigEndian.Uint32(data[4*i:]))
			if !isMember[id] {
				return nil, ErrBadRecord
			}
			for _, prev := range set[:i] {
				if prev == id {
					return nil, ErrBadRecord
				}
			}
			set[i] = id
		}
		data = data[4*n:]
		a.replicas[s] = set
	}
	if len(data) != 0 {
		return nil, ErrBadRecord
	}
	return a, nil
}

// StackFromSnapshot extracts the directory's epoch stack from a site's
// committed state — the recovery path: after engine.RecoverInPlace
// rebuilds the tree from the WAL alone, the reserved records in it
// reproduce the placement history with no host-side bootstrap. The
// records must form a contiguous stack 0..k; a gap means the snapshot
// predates this site learning an epoch it committed later, which cannot
// happen through the protocol (each bump is a transaction the site
// either committed durably or never saw).
func StackFromSnapshot(snap map[string][]byte) ([]*Assignment, error) {
	byEpoch := make(map[Epoch][]byte)
	var max Epoch
	for k, v := range snap {
		e, ok := ParseEpochKey(k)
		if !ok {
			continue
		}
		byEpoch[e] = v
		if e > max {
			max = e
		}
	}
	if len(byEpoch) == 0 {
		return nil, nil
	}
	stack := make([]*Assignment, 0, len(byEpoch))
	for e := Epoch(0); e <= max; e++ {
		v, ok := byEpoch[e]
		if !ok {
			return nil, fmt.Errorf("placement: epoch stack has a gap at %d (max %d)", e, max)
		}
		a, err := DecodeAssignment(v)
		if err != nil {
			return nil, fmt.Errorf("placement: epoch %d: %w", e, err)
		}
		stack = append(stack, a)
	}
	return stack, nil
}

// DirectoryFromSnapshot rebuilds the versioned directory from a site's
// committed state (see StackFromSnapshot). Returns nil with no error
// when the snapshot holds no directory records — the site was never
// seeded with sharded placement.
func DirectoryFromSnapshot(snap map[string][]byte) (*Directory, error) {
	stack, err := StackFromSnapshot(snap)
	if err != nil || len(stack) == 0 {
		return nil, err
	}
	d := &Directory{versions: stack}
	return d, nil
}
