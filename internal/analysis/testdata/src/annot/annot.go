// Package annot exercises the //tiermerge: directive parser.
package annot

import "sync"

// Merge acquires the lock itself.
//
//tiermerge:locks(none)
func Merge() {}

// InstallLocked requires the cluster mutex.
//
//tiermerge:locks(cluster)
func InstallLocked() {}

// Acquire may block.
//
//tiermerge:blocking
func Acquire() {}

// ReadSet returns an alias into shared structure.
//
//tiermerge:shared
func ReadSet() map[string]struct{} { return nil }

// Fill fills caller-owned sets.
//
//tiermerge:sink
func Fill(dst map[string]struct{}) { dst["x"] = struct{}{} }

// Plain carries no directives.
func Plain() {}

// Journal carries the mutex field contracts.
type Journal struct {
	// FMu serializes file I/O.
	//
	//tiermerge:iomutex
	FMu sync.Mutex

	// BMu guards the buffer only.
	//
	//tiermerge:leafmutex
	BMu sync.Mutex
}
