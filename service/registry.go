package service

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/intmat"
)

// MatrixInfo describes a served matrix in the registry.
type MatrixInfo struct {
	// Name is the registry name queries address the matrix by.
	Name string `json:"name"`
	// Rows is the matrix row count.
	Rows int `json:"rows"`
	// Cols is the matrix column count.
	Cols int `json:"cols"`
	// NNZ is the number of non-zero entries (the length of the served
	// matrix's non-zero lists, so explicit zeros in the upload do not
	// count).
	NNZ int `json:"nnz"`
	// Binary reports whether every entry is 0/1, which qualifies the
	// matrix for the ℓ∞ protocols.
	Binary bool `json:"binary"`
	// NonNeg reports whether every entry is ≥ 0, which qualifies the
	// matrix for the exact/l1sample protocols (Remarks 2 and 3).
	NonNeg bool `json:"non_negative"`
	// Uploaded is when the matrix was (last) installed.
	Uploaded time.Time `json:"uploaded"`
}

// servedMatrix is one registry entry: Bob's matrix, held once as its
// non-zero lists — what every Bob state borrows, what a row update
// patches, what a snapshot encodes — beside the bit rows the two
// Boolean kinds read, plus the catalog metadata Alice learns out of
// band. The lists are immutable and shared across goroutines.
// gen is the upload generation of the name — unique per PutMatrix, so
// sketch-cache entries built against a replaced matrix can never serve
// its successor. sub is the generation's sub-version: it advances by
// one per row update (UpdateRows), under which cached states are
// revalidated in place rather than evicted; a full replacement resets
// it with a fresh gen.
type servedMatrix struct {
	info  MatrixInfo
	cells cellCounts // what info's NNZ, Binary and NonNeg derive from
	gen   uint64
	sub   uint64
	list  *intmat.Sparse
	bits  *bitmat.Matrix // non-nil iff the matrix is 0/1
	elem  *list.Element
}

// newServedMatrix assembles a registry entry from validated lists; one
// pass over the non-zeros derives the catalog flags. A row update
// derives its successor from the touched rows instead (patchServed).
func newServedMatrix(name string, list *intmat.Sparse, uploaded time.Time, gen, sub uint64) *servedMatrix {
	sm := &servedMatrix{
		info: MatrixInfo{Name: name, Rows: list.Rows(), Cols: list.Cols(), Uploaded: uploaded},
		gen:  gen,
		sub:  sub,
		list: list,
	}
	var c cellCounts
	for i := 0; i < list.Rows(); i++ {
		_, vals := list.Row(i)
		c.addRow(vals, 1)
	}
	sm.setCells(c)
	if sm.info.Binary {
		sm.bits = bitmat.FromSparse(list)
	}
	return sm
}

// setCells records the cell tallies and the catalog flags they imply.
func (sm *servedMatrix) setCells(c cellCounts) {
	sm.cells = c
	sm.info.NNZ, sm.info.Binary, sm.info.NonNeg = c.nnz, c.nonBinary == 0, c.negative == 0
}

// registry is the named-matrix store hosting Bob's side of the service:
// upload B once, query it many times. Capacity is bounded; inserting
// beyond it evicts the least-recently-used matrix (uploads and queries
// both count as use).
type registry struct {
	mu  sync.Mutex
	cap int
	m   map[string]*servedMatrix
	lru *list.List // front = most recently used; values are names
}

func newRegistry(capacity int) *registry {
	return &registry{cap: capacity, m: make(map[string]*servedMatrix), lru: list.New()}
}

// put inserts or replaces a matrix and returns the names evicted to
// make room.
func (r *registry) put(name string, sm *servedMatrix) (evicted []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.m[name]; ok {
		r.lru.Remove(old.elem)
	}
	sm.elem = r.lru.PushFront(name)
	r.m[name] = sm
	for r.lru.Len() > r.cap {
		back := r.lru.Back()
		victim := back.Value.(string)
		r.lru.Remove(back)
		delete(r.m, victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// get returns the named matrix and marks it most recently used.
func (r *registry) get(name string) (*servedMatrix, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm, ok := r.m[name]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(sm.elem)
	return sm, true
}

// replaceIf swaps the named entry for its updated successor iff the
// stored entry is still the one the update was derived from — the
// compare half of the row-update path's copy-on-write: a concurrent
// PutMatrix (fresh generation) wins and the stale update is discarded
// by the caller. The successor inherits the entry's LRU position and
// is marked most recently used.
func (r *registry) replaceIf(name string, old, repl *servedMatrix) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.m[name]
	if !ok || cur != old {
		return false
	}
	repl.elem = cur.elem
	r.m[name] = repl
	r.lru.MoveToFront(repl.elem)
	return true
}

// peek returns the named matrix without touching its LRU position —
// for background readers (the snapshot compactor) that must not count
// as use.
func (r *registry) peek(name string) (*servedMatrix, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm, ok := r.m[name]
	return sm, ok
}

// delete removes the named matrix, reporting whether it existed.
func (r *registry) delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm, ok := r.m[name]
	if !ok {
		return false
	}
	r.lru.Remove(sm.elem)
	delete(r.m, name)
	return true
}

// infos lists the registry contents in most-recently-used order.
func (r *registry) infos() []MatrixInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MatrixInfo, 0, r.lru.Len())
	for e := r.lru.Front(); e != nil; e = e.Next() {
		out = append(out, r.m[e.Value.(string)].info)
	}
	return out
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}
