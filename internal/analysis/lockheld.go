package analysis

import (
	"go/ast"
	"go/types"
)

// LockHeld checks the lock discipline of the merge pipeline. Every rule
// runs in the engine's one walk per body (summary.go), with callee
// summaries in hand:
//
//   - a //tiermerge:locks(none) function acquires the cluster mutex
//     itself; calling it while any mutex is held self-deadlocks;
//   - a //tiermerge:locks(cluster) function requires the cluster mutex;
//     calling it with no mutex held (and outside another locks(cluster)
//     function) mutates shared state unprotected;
//   - no channel send, receive, select or channel range while a mutex is
//     held;
//   - no call that may block while a mutex is held — a //tiermerge:blocking
//     callee, a known standard-library blocker (time.Sleep, Wait, net and
//     os I/O), or a callee whose summary blocks, reported with the chain —
//     unless only //tiermerge:iomutex mutexes are held;
//   - no second distinct mutex while one is held unless it is a
//     //tiermerge:leafmutex (multi-mutex acquisition goes through the
//     ascending-order helper lockClusters, one key per loop pass), no
//     re-lock of a held mutex, same-class mutexes in strictly ascending
//     index order, and no cycle in the module-wide lock-order graph;
//   - no observer event, directly or through a callee, while a mutex is
//     held, unless buffered (//tiermerge:buffered-events);
//   - a call that re-acquires a held mutex's class through any chain is a
//     self-deadlock, and a locks(cluster|shard) function whose summary
//     blocks or emits contradicts its annotation.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "enforces //tiermerge:locks(none|cluster|shard) call contracts and, with " +
		"interprocedural summaries, forbids blocking calls, channel operations, observer " +
		"events, nested or re-entered mutexes and lock-order cycles under a held mutex",
	Run: func(pass *Pass) error {
		pass.Engine.emitFindings(pass)
		return nil
	},
}

// mutexOp recognizes X.Lock/RLock/Unlock/RUnlock() on a sync.Mutex or
// sync.RWMutex and returns the rendered mutex key and whether it locks.
func mutexOp(info *types.Info, e ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return "", false, false
	}
	t := info.Types[sel.X].Type
	if !typeIs(t, "sync", "Mutex") && !typeIs(t, "sync", "RWMutex") {
		return "", false, false
	}
	key = exprString(sel.X)
	if key == "" {
		key = "<mutex>"
	}
	return key, locks, true
}

// fieldAnnOf resolves a mutex expression ("d.fmu", "bs[i].mu") to its
// field declaration's annotations.
func fieldAnnOf(ann *Annotations, info *types.Info, mutex ast.Expr) *Ann {
	switch x := ast.Unparen(mutex).(type) {
	case *ast.SelectorExpr:
		return ann.Field(info.Uses[x.Sel])
	case *ast.Ident:
		return ann.Field(info.Uses[x])
	}
	return &Ann{}
}

// isKnownBlocking matches standard-library calls that park the goroutine.
func isKnownBlocking(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "time":
		return f.Name() == "Sleep"
	case "sync":
		if f.Name() != "Wait" {
			return false
		}
		sig, _ := f.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return false
		}
		return typeIs(sig.Recv().Type(), "sync", "WaitGroup") ||
			typeIs(sig.Recv().Type(), "sync", "Cond")
	case "net":
		// Socket and listener operations park the goroutine on kernel
		// I/O — dials, accepts, reads, writes. Matching by name covers
		// both the package functions and the methods on net.Conn /
		// net.Listener implementations (and the interfaces themselves,
		// whose method objects also live in package net). Deadline and
		// option setters are nonblocking and deliberately absent.
		switch f.Name() {
		case "Dial", "DialContext", "DialTimeout", "DialTCP", "DialUDP",
			"Listen", "ListenTCP", "ListenPacket",
			"Accept", "AcceptTCP",
			"Read", "Write", "ReadFrom", "WriteTo", "ReadMsgUDP", "WriteMsgUDP":
			return true
		}
		return false
	case "os":
		// Disk I/O parks the goroutine just like socket I/O — the durable
		// store's sync-before-ack discipline (DESIGN.md §14) depends on no
		// file operation ever running under the cluster mutex. Matching by
		// name covers both the package functions and the methods on
		// *os.File. Environment and process accessors (os.Getenv,
		// os.Getpid) are in-memory and deliberately absent.
		switch f.Name() {
		case "Open", "OpenFile", "Create", "CreateTemp",
			"ReadFile", "WriteFile", "ReadDir", "MkdirTemp",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll",
			"Stat", "Lstat", "Truncate", "Chmod", "Chown",
			"Read", "ReadAt", "Write", "WriteAt", "WriteString",
			"Sync", "Close", "Seek":
			return true
		}
		return false
	}
	return false
}
