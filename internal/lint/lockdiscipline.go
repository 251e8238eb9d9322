package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockdiscipline: two mutex-hygiene rules, scoped to one function body
// at a time (a lock deliberately held across function boundaries needs
// an //lint:allow explaining its protocol):
//
//  1. X.Lock() / X.RLock() without a matching deferred Unlock/RUnlock
//     in the same function. Manual unlock pairs survive today's code
//     paths but not the next early return or panic inserted above
//     them. (A hot path that measurably cannot afford defer carries an
//     //lint:allow with its reason, not a silent exemption.)
//  2. A channel send while the lock is (statically, by source
//     position) still held. Sends can block indefinitely; blocking
//     with a mutex held is how the event loop deadlocks.
//
// Receiver matching is typed (sync.Mutex / sync.RWMutex, including
// promoted embedded fields); when type information is unavailable the
// check falls back to naming convention (mu, mtx, *Mutex, *Mu).
var lockdisciplineCheck = Check{
	Name: "lockdiscipline",
	Doc:  "Lock without deferred Unlock; channel send while a lock is held",
	Run:  runLockdiscipline,
}

type lockEvent struct {
	key    string // exprKey of the receiver, e.g. "t.mu"
	read   bool   // RLock/RUnlock
	pos    token.Pos
	render string
}

func runLockdiscipline(pass *Pass) {
	for _, file := range pass.Files {
		f := file
		eachFuncBody(f, func(body *ast.BlockStmt) {
			lockScanFunc(pass, f, body)
		})
	}
}

func lockScanFunc(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	var locks, unlocks []lockEvent
	deferred := make(map[string]bool) // key + "/R"? for read variant
	var sends []token.Pos

	variantKey := func(key string, read bool) string {
		if read {
			return key + "/R"
		}
		return key
	}

	// recordUnlocks collects Unlock/RUnlock calls inside a deferred
	// function literal, which count as deferred releases.
	recordDeferredLit := func(lit *ast.FuncLit) {
		walkScope(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, read, name := mutexCall(pass, call); name == "Unlock" || name == "RUnlock" {
					deferred[variantKey(key, read)] = true
				}
			}
			return true
		})
	}

	walkScope(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if key, read, name := mutexCall(pass, x.Call); name == "Unlock" || name == "RUnlock" {
				deferred[variantKey(key, read)] = true
				return false
			}
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				recordDeferredLit(lit)
				return false
			}
		case *ast.SendStmt:
			sends = append(sends, x.Pos())
		case *ast.CallExpr:
			key, read, name := mutexCall(pass, x)
			switch name {
			case "Lock", "RLock":
				locks = append(locks, lockEvent{
					key: key, read: read, pos: x.Pos(),
					render: renderExpr(pass.Fset, x.Fun),
				})
			case "Unlock", "RUnlock":
				unlocks = append(unlocks, lockEvent{key: key, read: read, pos: x.Pos()})
			}
		}
		return true
	})

	for _, l := range locks {
		if !deferred[variantKey(l.key, l.read)] {
			want := "Unlock"
			if l.read {
				want = "RUnlock"
			}
			pass.reportf("lockdiscipline", l.pos,
				"%s() without a deferred %s.%s() in the same function; an early return or panic leaks the lock",
				l.render, l.key, want)
		}
		// Held window: up to the first later manual release of the same
		// lock, else to the end of the function (the defer case).
		end := body.End()
		for _, u := range unlocks {
			if u.key == l.key && u.read == l.read && u.pos > l.pos && u.pos < end {
				end = u.pos
			}
		}
		for _, s := range sends {
			if s > l.pos && s < end {
				pass.reportf("lockdiscipline", s,
					"channel send while %s is held (locked at %s); a blocked receiver deadlocks every other acquirer",
					l.key, pass.Fset.Position(l.pos))
			}
		}
	}
}

// mutexCall decides whether call is X.Lock/Unlock/RLock/RUnlock on a
// mutex-like receiver and returns the receiver key, whether it is the
// read variant, and the method name ("" when not a mutex call).
func mutexCall(pass *Pass, call *ast.CallExpr) (key string, read bool, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, ""
	}
	m := sel.Sel.Name
	switch m {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", false, ""
	}
	if len(call.Args) != 0 {
		return "", false, ""
	}
	if !isMutexRecv(pass, sel) {
		return "", false, ""
	}
	k := exprKey(sel.X)
	if k == "" {
		k = renderExpr(pass.Fset, sel.X)
	}
	return k, m == "RLock" || m == "RUnlock", m
}

// isMutexRecv reports whether the selector's method resolves to
// sync.Mutex/sync.RWMutex (typed path, covering promoted embedded
// mutexes) or, lacking type information, whether the receiver follows
// the mutex naming convention.
func isMutexRecv(pass *Pass, sel *ast.SelectorExpr) bool {
	if pass.Info != nil {
		if s, ok := pass.Info.Selections[sel]; ok {
			if f := s.Obj(); f != nil && f.Pkg() != nil {
				return f.Pkg().Path() == "sync"
			}
		}
		if t := pass.typeOf(sel.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
					(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
					return true
				}
				return false // typed, but not a sync mutex
			}
			return false
		}
	}
	// No type information: naming convention fallback.
	k := exprKey(sel.X)
	last := k[strings.LastIndex(k, ".")+1:]
	return last == "mu" || last == "mtx" || last == "lock" ||
		strings.HasSuffix(last, "Mu") || strings.HasSuffix(last, "Mutex")
}
