package rewrite

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// CachedDetector implements the paper's canned-system mode: "since
// transactions are of limited number of types and the code of each
// transaction type is available, the can precede relation between two
// transactions can be pre-detected by detecting the relation between the
// corresponding two transaction types in advance" (Section 5.1).
//
// Rather than an offline table, the detector memoizes its inner detector's
// verdicts keyed by the *type-pair instance shape*: the two canned type
// names plus the full body shape of each profile — statement opcodes,
// operator structure, constants and parameter names — under a canonical
// renaming of the data items the profiles and the fix touch. Two queries
// with the same key are guaranteed the same answer because the static
// analysis depends only on that structure and item-coincidence pattern,
// never on parameter values or on the fix's concrete values (Definition 4
// quantifies over those). Keying on the full shape rather than the item
// sequence alone means two profiles that touch the same items through
// different code (an additive vs a multiplicative update, say) can never
// share a memo slot, even if their Type names collide.
//
// Under the canned-system contract the paper assumes — equal Type names
// imply equal code shape modulo item bindings — instances of the same type
// pair still coalesce onto one key. Ad-hoc transactions (empty Type) are
// never cached.
//
// The memo table is sharded by key hash with per-shard read/write locks and
// atomic hit/miss counters, so concurrent Algorithm-2 rewrites (merges on
// different shards and previews sharing one detector) neither serialize on
// a single lock nor contend on hot keys: the steady-state hit path is a
// shared read lock on 1/cacheShards of the table.
type CachedDetector struct {
	// Inner produces verdicts on cache misses (default StaticDetector).
	Inner PrecedeDetector

	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

// cacheShards is the memo-table shard count (a power of two so the hash
// masks cheaply).
const cacheShards = 16

// cacheShard is one lock-striped slice of the memo table.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]bool
}

var _ PrecedeDetector = (*CachedDetector)(nil)

// NewCachedDetector wraps inner with the type-pair cache.
func NewCachedDetector(inner PrecedeDetector) *CachedDetector {
	if inner == nil {
		inner = StaticDetector{}
	}
	c := &CachedDetector{Inner: inner}
	for i := range c.shards {
		c.shards[i].m = make(map[string]bool)
	}
	return c
}

// Name implements PrecedeDetector.
func (c *CachedDetector) Name() string { return "cached(" + c.Inner.Name() + ")" }

// Stats returns the cache hit/miss counters.
func (c *CachedDetector) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// shardFor picks the shard by FNV-1a hash of the key.
func (c *CachedDetector) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// CanPrecede implements PrecedeDetector.
func (c *CachedDetector) CanPrecede(t2, t1 *tx.Transaction, fix tx.Fix) bool {
	if t1.Type == "" || t2.Type == "" {
		return c.Inner.CanPrecede(t2, t1, fix)
	}
	key := pairKey(t2, t1, fix)
	sh := c.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v
	}
	v = c.Inner.CanPrecede(t2, t1, fix)
	c.misses.Add(1)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// pairKey canonicalizes the type-pair instance: the two type names, the
// full body shape of each profile (statement opcodes, operator structure,
// constants, parameter names — see expr.WriteShape), and the fix's item
// set, with every item renamed to a dense index in first-occurrence order
// over (t2's body, t1's body, sorted fix items). Any item-consistent
// renaming of the same code produces the same key, and — unlike keying on
// the item sequence alone — two profiles that touch the same items through
// different code (a += $amt vs a *= $f) can never collide: the static
// analysis reads exactly the structure the shape serializes, nothing more.
//
// The fix contributes only its item indices: Definition 4 quantifies over
// the fixed values, so the verdict cannot depend on them.
func pairKey(t2, t1 *tx.Transaction, fix tx.Fix) string {
	rename := make(map[model.Item]int)
	assign := func(it model.Item) int {
		if id, ok := rename[it]; ok {
			return id
		}
		id := len(rename)
		rename[it] = id
		return id
	}
	var b strings.Builder
	b.WriteString(t2.Type)
	b.WriteByte('|')
	b.WriteString(t1.Type)
	b.WriteByte('|')
	writeBodyShape(&b, t2, assign)
	b.WriteByte('|')
	writeBodyShape(&b, t1, assign)
	b.WriteByte('|')
	fixItems := make([]model.Item, 0, len(fix))
	for it := range fix {
		fixItems = append(fixItems, it)
	}
	sort.Slice(fixItems, func(i, j int) bool { return fixItems[i] < fixItems[j] })
	for _, it := range fixItems {
		fmt.Fprintf(&b, "%d,", assign(it))
	}
	return b.String()
}

// writeBodyShape appends the canonical shape of a profile body: one token
// per statement in body-walk order, items renamed through assign,
// expressions and predicates serialized by the expr shape writers.
func writeBodyShape(b *strings.Builder, t *tx.Transaction, assign func(model.Item) int) {
	var walkStmts func(body []tx.Stmt)
	walkStmts = func(body []tx.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *tx.ReadStmt:
				fmt.Fprintf(b, "r%d;", assign(st.Item))
			case *tx.UpdateStmt:
				fmt.Fprintf(b, "u%d=", assign(st.Item))
				expr.WriteShape(b, st.Expr, assign)
				b.WriteByte(';')
			case *tx.AssignStmt:
				fmt.Fprintf(b, "a%d=", assign(st.Item))
				expr.WriteShape(b, st.Expr, assign)
				b.WriteByte(';')
			case *tx.IfStmt:
				b.WriteString("if(")
				expr.WritePredShape(b, st.Cond, assign)
				b.WriteString("){")
				walkStmts(st.Then)
				b.WriteString("}else{")
				walkStmts(st.Else)
				b.WriteString("};")
			default:
				// Unknown statement kind: identify it by type, keeping keys
				// distinct (conservative misses, never conflation).
				fmt.Fprintf(b, "?%T;", s)
			}
		}
	}
	walkStmts(t.Body)
}
