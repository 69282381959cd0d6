package store

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
)

// index is the one ordered index both stores keep, generic over what an
// entry holds beside its key: the in-memory Store keeps the payload and its
// creation time, the durable store a 16-byte locator of the payload's bytes
// in its own files, where the creation time lies right after them.
//
// run and recent are the index: every live object is an entry in exactly
// one of them, and both are ordered by key. run holds almost every key,
// front-coded; recent holds the keys inserted since the last merge as plain
// strings. A lookup is a binary search of each; List, the retention sweep
// and export walk a key range of both in order. A new key is inserted into
// the small recent run (a bounded memmove), and a full recent run is merged
// into run by copying every block it does not touch verbatim and
// re-encoding only those it does, so an insert costs O(log n) plus an
// amortized O(n/recentMergeAt). Methods ending in Locked leave mu to the
// caller; the others take it themselves.
type index[V any] struct {
	mu     sync.RWMutex
	run    run[V]
	recent []slot[V]
}

// recentMergeAt bounds the recent run: reaching it merges recent into run.
const recentMergeAt = 512

// restartEvery is the most entries one block of a run holds: a lookup
// decodes at most this many keys after its binary search.
const restartEvery = 16

// slot is an entry with its key as a string: the recent run's element, and
// the unit a whole index is rebuilt from. The entry, V, is what the index
// keeps per object beside its key: 16 bytes in the durable store (a
// locator), 32 in the in-memory one (a []byte header and the creation time).
type slot[V any] struct {
	key string
	val V
}

// run is a key-ordered, front-coded sequence of entries. keys holds, per
// entry, uvarint(shared) uvarint(len(suffix)) suffix, where the key is the
// first shared bytes of the previous entry's key followed by suffix. The
// first entry of each block is a restart: shared is 0 and the whole key is
// spelled out, so a block decodes on its own. ents[i] is entry i. Nothing
// in a run is a pointer unless V holds one.
type run[V any] struct {
	keys   []byte
	blocks []block
	ents   []V
}

// block locates one restart: the byte offset of its entry in keys and its
// position in ents. A block runs to the next one's restart.
type block struct{ off, first uint32 }

// newBlock returns the block starting at byte off and entry first.
func newBlock(off, first int) block {
	if off > math.MaxUint32 || first > math.MaxUint32 {
		panic("store: index run outgrew 32-bit offsets")
	}
	return block{off: uint32(off), first: uint32(first)}
}

// bounds returns where block b starts in keys and ents; b == len(blocks)
// gives the run's ends.
func (r *run[V]) bounds(b int) (off, first int) {
	if b == len(r.blocks) {
		return len(r.keys), len(r.ents)
	}
	return int(r.blocks[b].off), int(r.blocks[b].first)
}

// restartKey returns block b's first key, in place in keys.
func (r *run[V]) restartKey(b int) []byte {
	off := int(r.blocks[b].off) + 1 // past shared, which is 0
	n, w := binary.Uvarint(r.keys[off:])
	off += w
	return r.keys[off : off+int(n)]
}

// blockOf returns the block a key belongs to: the last whose restart key is
// not above it, or block 0 for a key below every restart.
func (r *run[V]) blockOf(key string) int {
	lo, hi := 0, len(r.blocks)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); string(r.restartKey(m)) <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return max(lo-1, 0)
}

// blockAt returns the block holding entry i.
func (r *run[V]) blockAt(i int) int {
	b, _ := slices.BinarySearchFunc(r.blocks, i, func(bl block, i int) int { return int(bl.first) - i })
	if b == len(r.blocks) || int(r.blocks[b].first) > i {
		b--
	}
	return b
}

// nextKey decodes the entry at keys[off:] onto prev, the key before it, and
// returns its key (in prev's storage when it fits) and where the next entry
// starts.
func nextKey(keys []byte, off int, prev []byte) ([]byte, int) {
	shared, suffix, next := entryAt(keys, off)
	return append(prev[:shared], suffix...), next
}

// entryAt returns the entry at keys[off:] as it is stored — how many bytes
// it shares with the key before it, and the rest — and where the next entry
// starts.
func entryAt(keys []byte, off int) (shared int, suffix []byte, next int) {
	if n, size := keys[off], keys[off+1]; n < 0x80 && size < 0x80 { // both one byte, as for any key under 128 bytes
		end := off + 2 + int(size)
		return int(n), keys[off+2 : end], end
	}
	n, w := binary.Uvarint(keys[off:])
	off += w
	size, w := binary.Uvarint(keys[off:])
	off += w
	return int(n), keys[off : off+int(size)], off + int(size)
}

// sharedLen returns how many leading bytes a and b share.
func sharedLen[A, B ~string | ~[]byte](a A, b B) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// appendKey appends key's encoding after prev, the key before it in its
// block (empty at a restart).
func appendKey[P, K ~string | ~[]byte](dst []byte, prev P, key K) []byte {
	shared := sharedLen(prev, key)
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(key)-shared))
	return append(dst, key[shared:]...)
}

// keySize is len(appendKey(nil, prev, key)).
func keySize[P, K ~string | ~[]byte](prev P, key K) int {
	shared := sharedLen(prev, key)
	suffix := len(key) - shared
	return uvarintLen(shared) + uvarintLen(suffix) + suffix
}

// seek returns the first entry whose key is not below key: its position
// (len(ents) if there is none), the offset of the entry after it, and its
// key, decoded into buf's storage.
func (r *run[V]) seek(key string, buf []byte) (i, next int, k []byte) {
	if len(r.blocks) == 0 {
		return 0, 0, buf[:0]
	}
	b := r.blockOf(key)
	next, i = r.bounds(b)
	k = buf[:0]
	for ; i < len(r.ents); i++ {
		if k, next = nextKey(r.keys, next, k); string(k) >= key {
			break
		}
	}
	return i, next, k
}

// find returns the position of key in the run and whether it is there.
func (r *run[V]) find(key string) (int, bool) {
	var buf [128]byte
	i, _, k := r.seek(key, buf[:0])
	return i, i < len(r.ents) && string(k) == key
}

// encodeSlots returns the run of es, which are ordered by key and distinct,
// in blocks of restartEvery entries, every slice allocated at its length.
func encodeSlots[V any](es []slot[V]) run[V] {
	size := 0
	for i, e := range es {
		prev := ""
		if i%restartEvery != 0 {
			prev = es[i-1].key
		}
		size += keySize(prev, e.key)
	}
	r := run[V]{
		keys:   make([]byte, 0, size),
		blocks: make([]block, 0, (len(es)+restartEvery-1)/restartEvery),
		ents:   make([]V, len(es)),
	}
	for i, e := range es {
		prev := ""
		if i%restartEvery == 0 {
			r.blocks = append(r.blocks, newBlock(len(r.keys), i))
		} else {
			prev = es[i-1].key
		}
		r.keys = appendKey(r.keys, prev, e.key)
		r.ents[i] = e.val
	}
	return r
}

// appendBlocks appends blocks [b0, b1) of src to r verbatim: their bytes
// and entries in two copies, their restarts shifted to where they land.
func (r *run[V]) appendBlocks(src *run[V], b0, b1 int) {
	if b0 == b1 {
		return
	}
	k0, e0 := src.bounds(b0)
	k1, e1 := src.bounds(b1)
	dk, de := len(r.keys)-k0, len(r.ents)-e0
	r.keys = append(r.keys, src.keys[k0:k1]...)
	r.ents = append(r.ents, src.ents[e0:e1]...)
	for _, bl := range src.blocks[b0:b1] {
		r.blocks = append(r.blocks, newBlock(int(bl.off)+dk, int(bl.first)+de))
	}
}

// pending is one entry of a block being re-encoded: its key's span in a
// scratch buffer, and the entry.
type pending[V any] struct {
	lo, hi int
	val    V
}

// gather appends block b's entries to items, their keys to kbuf, with adds
// (ordered, none in the run) merged in and the entries at positions dels
// (ascending) left out.
func (r *run[V]) gather(items []pending[V], kbuf []byte, b int, adds []slot[V], dels []int) ([]pending[V], []byte) {
	off, i := r.bounds(b)
	_, end := r.bounds(b + 1)
	var buf [128]byte
	k := buf[:0]
	for ; i < end; i++ {
		k, off = nextKey(r.keys, off, k)
		for len(adds) > 0 && adds[0].key < string(k) {
			lo := len(kbuf)
			kbuf = append(kbuf, adds[0].key...)
			items = append(items, pending[V]{lo: lo, hi: len(kbuf), val: adds[0].val})
			adds = adds[1:]
		}
		if len(dels) > 0 && dels[0] == i {
			dels = dels[1:]
			continue
		}
		lo := len(kbuf)
		kbuf = append(kbuf, k...)
		items = append(items, pending[V]{lo: lo, hi: len(kbuf), val: r.ents[i]})
	}
	for _, a := range adds {
		lo := len(kbuf)
		kbuf = append(kbuf, a.key...)
		items = append(items, pending[V]{lo: lo, hi: len(kbuf), val: a.val})
	}
	return items, kbuf
}

// encodeItems appends items as the fewest blocks of at most restartEvery
// entries, of near-equal size, to r — or, with r nil, only counts the
// bytes and blocks that would take.
func encodeItems[V any](r *run[V], items []pending[V], kbuf []byte) (size, blocks int) {
	m := len(items)
	nb := (m + restartEvery - 1) / restartEvery
	for g := 0; g < nb; g++ {
		if r != nil {
			r.blocks = append(r.blocks, newBlock(len(r.keys), len(r.ents)))
		}
		var prev []byte
		for _, it := range items[g*m/nb : (g+1)*m/nb] {
			key := kbuf[it.lo:it.hi]
			if r != nil {
				r.keys = appendKey(r.keys, prev, key)
				r.ents = append(r.ents, it.val)
			}
			size += keySize(prev, key)
			prev = key
		}
	}
	return size, nb
}

// splice returns the run with adds inserted and the entries at positions
// dels removed. adds are ordered by key and none is in the run; dels are
// ascending and distinct. A block that gains or loses no entry is copied
// verbatim; one that does is decoded, edited and re-encoded as the fewest
// blocks of at most restartEvery entries, of near-equal size. The edited
// blocks are decoded twice, once to size the result and once to write it,
// so every slice is allocated once at its exact size; r is left as it was.
func (r *run[V]) splice(adds []slot[V], dels []int) run[V] {
	if len(r.blocks) == 0 {
		return encodeSlots(adds)
	}
	type edit struct {
		b    int
		adds []slot[V]
		dels []int
	}
	var (
		edits []edit
		items []pending[V]
		kbuf  []byte
	)
	size, n, nb := len(r.keys), len(r.ents)+len(adds)-len(dels), len(r.blocks)
	for len(adds) > 0 || len(dels) > 0 {
		b := len(r.blocks)
		if len(adds) > 0 {
			b = r.blockOf(adds[0].key)
		}
		if len(dels) > 0 {
			b = min(b, r.blockAt(dels[0]))
		}
		k0, _ := r.bounds(b)
		k1, e1 := r.bounds(b + 1)
		ed := edit{b: b}
		na := 0
		for na < len(adds) && (b+1 == len(r.blocks) || adds[na].key < string(r.restartKey(b+1))) {
			na++
		}
		nd := 0
		for nd < len(dels) && dels[nd] < e1 {
			nd++
		}
		ed.adds, adds = adds[:na], adds[na:]
		ed.dels, dels = dels[:nd], dels[nd:]
		edits = append(edits, ed)
		items, kbuf = r.gather(items[:0], kbuf[:0], b, ed.adds, ed.dels)
		bytes, blocks := encodeItems[V](nil, items, kbuf)
		size, nb = size-(k1-k0)+bytes, nb-1+blocks
	}
	out := run[V]{keys: make([]byte, 0, size), blocks: make([]block, 0, nb), ents: make([]V, 0, n)}
	b := 0
	for _, ed := range edits {
		out.appendBlocks(r, b, ed.b)
		items, kbuf = r.gather(items[:0], kbuf[:0], ed.b, ed.adds, ed.dels)
		encodeItems(&out, items, kbuf)
		b = ed.b + 1
	}
	out.appendBlocks(r, b, len(r.blocks))
	return out
}

// search returns the position of key in es, or the position it would be
// inserted at, and whether it is there.
func search[V any](es []slot[V], key string) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); es[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(es) && es[lo].key == key
}

// cursor walks the index in key order, run and recent together, from a
// seek.
type cursor[V any] struct {
	run  *run[V]
	i    int       // run entry decoded in rk; len(run.ents) once run is passed
	next int       // where run entry i+1 starts
	rk   []byte    // run entry i's key
	rest []slot[V] // recent entries not yet passed
	kb   []byte    // rest[0]'s key, copied, when it is the current entry
	// e is the current entry, nil at the end; inRecent says whose it is.
	e        *V
	inRecent bool
}

// seek returns a cursor at the first entry whose key is not below from.
func (x *index[V]) seek(from string) *cursor[V] {
	c := &cursor[V]{run: &x.run, kb: make([]byte, 0, 64)}
	c.i, c.next, c.rk = x.run.seek(from, make([]byte, 0, 64))
	lo, _ := search(x.recent, from)
	c.rest = x.recent[lo:]
	c.settle()
	return c
}

// settle makes the lower of run's and recent's next entries current.
func (c *cursor[V]) settle() {
	inRun := c.i < len(c.run.ents)
	switch {
	case len(c.rest) > 0 && (!inRun || c.rest[0].key < string(c.rk)):
		c.kb = append(c.kb[:0], c.rest[0].key...)
		c.e, c.inRecent = &c.rest[0].val, true
	case inRun:
		c.e, c.inRecent = &c.run.ents[c.i], false
	default:
		c.e = nil
	}
}

// step moves to the next entry.
func (c *cursor[V]) step() {
	if c.inRecent {
		c.rest = c.rest[1:]
	} else if c.i++; c.i < len(c.run.ents) {
		c.rk, c.next = nextKey(c.run.keys, c.next, c.rk)
	}
	c.settle()
}

// key returns the current entry's key; it is valid until the next step.
func (c *cursor[V]) key() []byte {
	if c.inRecent {
		return c.kb
	}
	return c.rk
}

// hasPrefix is strings.HasPrefix for a key in bytes.
func hasPrefix(key []byte, prefix string) bool {
	return len(key) >= len(prefix) && string(key[:len(prefix)]) == prefix
}

// findLocked returns the entry stored under key, or nil.
func (x *index[V]) findLocked(key string) *V {
	if i, ok := x.run.find(key); ok {
		return &x.run.ents[i]
	}
	if i, ok := search(x.recent, key); ok {
		return &x.recent[i].val
	}
	return nil
}

// putLocked installs or overwrites the entry under key; an overwrite
// updates the entry in place, wherever it is.
func (x *index[V]) putLocked(key string, val V) {
	if e := x.findLocked(key); e != nil {
		*e = val
		return
	}
	i, _ := search(x.recent, key)
	x.recent = slices.Insert(x.recent, i, slot[V]{key: key, val: val})
	if len(x.recent) >= recentMergeAt {
		x.mergeLocked()
	}
}

// mergeLocked folds the recent run into run.
func (x *index[V]) mergeLocked() {
	x.run = x.run.splice(x.recent, nil)
	// Drop the run's references: run owns the values now.
	clear(x.recent)
	x.recent = x.recent[:0]
}

// removeLocked deletes the named entries; a key that is not stored is a
// no-op.
func (x *index[V]) removeLocked(keys ...string) {
	var dels []int
	for _, k := range keys {
		if i, ok := x.run.find(k); ok {
			dels = append(dels, i)
		}
	}
	if len(dels) > 0 {
		slices.Sort(dels)
		x.run = x.run.splice(nil, slices.Compact(dels)) // a key may be named twice
	}
	x.recent = removeKeys(x.recent, keys)
}

// removeKeys closes the gaps the named keys leave in es with one pass of
// copies, however many keys are named.
func removeKeys[V any](es []slot[V], keys []string) []slot[V] {
	var hits []int
	for _, k := range keys {
		if i, ok := search(es, k); ok {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		return es
	}
	slices.Sort(hits)
	hits = slices.Compact(hits)
	w := hits[0]
	for n, i := range hits {
		end := len(es)
		if n+1 < len(hits) {
			end = hits[n+1]
		}
		w += copy(es[w:], es[i+1:end])
	}
	clear(es[w:])
	return es[:w]
}

// eachLocked calls fn on every entry, in key order. key is valid only for
// the call.
func (x *index[V]) eachLocked(fn func(key []byte, e *V)) {
	for c := x.seek(""); c.e != nil; c.step() {
		fn(c.key(), c.e)
	}
}

// keyAtLocked returns the key of the n-th entry in key order.
func (x *index[V]) keyAtLocked(n int) string {
	c := x.seek("")
	for ; n > 0 && c.e != nil; n-- {
		c.step()
	}
	return string(c.key())
}

// lenLocked returns the number of entries.
func (x *index[V]) lenLocked() int { return len(x.run.ents) + len(x.recent) }

// list returns the keys under prefix, sorted. The run's keys are written
// into one string, whose substrings they are, and the recent run's are its
// own strings, so a call allocates twice however many keys it returns.
func (x *index[V]) list(prefix string) []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	r := &x.run
	lo, _ := search(x.recent, prefix)
	hi := lo
	for hi < len(x.recent) && strings.HasPrefix(x.recent[hi].key, prefix) {
		hi++
	}
	rec := x.recent[lo:hi]
	// Count and size the run's keys under prefix. The first is decoded; a
	// later one is under prefix when what it shares with the one before
	// covers prefix or its suffix spells out the rest of it.
	var buf [128]byte
	i, next, first := r.seek(prefix, buf[:0])
	n, size := 0, 0
	if i < len(r.ents) && hasPrefix(first, prefix) {
		n, size = 1, len(first)
		for off := next; i+n < len(r.ents); n++ {
			shared, suffix, end := entryAt(r.keys, off)
			if shared < len(prefix) && !hasPrefix(suffix, prefix[shared:]) {
				break
			}
			size, off = size+shared+len(suffix), end
		}
	}
	if n+len(rec) == 0 {
		return nil
	}
	out := make([]string, 0, n+len(rec))
	if n > 0 {
		// Each key is the one before it, cut at shared, and its suffix; the
		// one before it is already written, and the exact Grow means
		// nothing written ever moves.
		var sb strings.Builder
		sb.Grow(size)
		sb.Write(first)
		prev := sb.String()
		out = append(out, prev)
		for off := next; len(out) < n; {
			shared, suffix, end := entryAt(r.keys, off)
			at := sb.Len()
			sb.WriteString(prev[:shared])
			sb.Write(suffix)
			prev = sb.String()[at:]
			out, off = append(out, prev), end
		}
	}
	// Merge the recent keys in from the back.
	a := len(out) - 1
	out = out[:n+len(rec)]
	for w, j := len(out)-1, len(rec)-1; j >= 0; w-- {
		if a >= 0 && out[a] > rec[j].key {
			out[w], a = out[a], a-1
		} else {
			out[w], j = rec[j].key, j-1
		}
	}
	return out
}

// len returns the number of entries.
func (x *index[V]) len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.lenLocked()
}

// sweptLocked calls fn, in key order, on every entry the retention sweep
// judges: the event files and the signature index entries, each range
// found by one seek. key is valid only for the call.
func (x *index[V]) sweptLocked(fn func(key []byte, e *V)) {
	for _, prefix := range [...]string{"events/", "index/"} {
		for c := x.seek(prefix); c.e != nil && hasPrefix(c.key(), prefix); c.step() {
			fn(c.key(), c.e)
		}
	}
}

// expiredLocked returns, sorted, the paths the retention sweep reaps at
// cutoff (Unix nanoseconds): the swept entries created before it. created
// reports an entry's creation time; it is called once per swept entry, in
// the order sweptLocked visits them. events counts the event files.
func (x *index[V]) expiredLocked(cutoff int64, created func(*V) int64) (reaped []string, events int) {
	x.sweptLocked(func(key []byte, e *V) {
		if created(e) < cutoff {
			reaped = append(reaped, string(key))
			if hasPrefix(key, "events/") {
				events++
			}
		}
	})
	return reaped, events
}

// resetLocked replaces the whole index with es. The entries may come from a
// peer's image, so the order the index rests on is established here, a
// later duplicate winning as a replayed put would.
func (x *index[V]) resetLocked(es []slot[V]) {
	slices.SortStableFunc(es, func(a, b slot[V]) int { return strings.Compare(a.key, b.key) })
	w := 0
	for i, e := range es {
		if i+1 < len(es) && es[i+1].key == e.key {
			continue
		}
		es[w] = e
		w++
	}
	x.run, x.recent = encodeSlots(es[:w]), nil
}
