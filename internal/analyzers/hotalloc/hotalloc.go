// Package hotalloc flags allocating constructs inside hot-path functions.
// PR 5 drove the kernel's schedule/cancel/dispatch loop, the channel's
// shed fast path and the metrics instruments to 0 allocs/op, and pinned
// that with benchmark assertions (bench_test.go's AllocsPerRun guards) —
// but a benchmark only fails when it runs, and only for the exact path it
// drives. This analyzer turns the same contract into a build-time check:
// any construct the compiler may lower to a heap allocation — make, new,
// append (backing-array growth), composite literals, closure creation,
// string↔[]byte conversions, and interface boxing of non-pointer values —
// is flagged inside a hot function, with the position of the construct.
//
// A function is hot when its doc comment carries the directive
// `//mobicache:hot` or when it is listed in the built-in knownHot table,
// which names the contract functions so that deleting an annotation cannot
// silently retire the check. The marker is a directive (like //go: and
// //lint: lines) because gofmt leaves directives alone; a plain `//hot`
// line would be rewritten to `// hot` and stop matching.
//
// The check is lexical and deliberately conservative: a flagged construct
// is not proven to allocate on every execution (a composite literal may
// stay on the stack; an append may have capacity). Cold sub-paths inside
// a hot function — a freelist miss, a pool refill — are exactly what
// //lint:allow hotalloc with a rationale is for; the suppression then
// documents the amortization argument next to the code. Arguments of
// panic calls are skipped wholesale: a panicking simulation is over, so
// formatting the message may allocate freely.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"mobicache/internal/analyzers/framework"
)

// knownHot pins the contract functions per package-path suffix, as
// "Type.Method" or plain "Func". These are the paths whose allocs/op the
// benchmark suite asserts to be zero (BenchmarkKernelEventThroughput,
// BenchmarkKernelScheduleCancel, BenchmarkChannelSaturated,
// BenchmarkChannelBoundedShed, BenchmarkServerFetchShed,
// BenchmarkDeliveryLinkDeliver, BenchmarkChurnStormTick) plus the per-event instruments and the pooled
// bit writers that ride inside them.
var knownHot = map[string][]string{
	"internal/sim": {
		"Kernel.Schedule", "Kernel.At", "Kernel.Cancel", "Kernel.Step",
		"Kernel.push", "Kernel.remove", "Kernel.up", "Kernel.down",
	},
	"internal/netsim": {"Channel.Send", "Channel.dispatch", "Channel.complete", "line.push"},
	// A postponed or duplicated delivery rides a pooled carrier.
	"internal/delivery": {"Link.Deliver", "Link.schedule", "carrier.fire"},
	"internal/metrics":  {"Histogram.Observe"},
	"internal/bitio": {
		"Writer.WriteBits", "Writer.WriteBool", "Writer.WriteFloat",
		"Reader.ReadBits", "Reader.ReadBool", "Reader.ReadFloat",
	},
	"internal/churn": {
		"Adversary.stormTick", "Adversary.snapshot", "EncodeSnapshot",
	},
	// BenchmarkAggregateTick asserts the broadcast fan-out over the whole
	// population is 0 allocs/op; the cache methods ride inside it.
	"internal/population": {
		"Handle.DeliverReport", "Population.hold", "Population.wakeIfParked",
	},
	"internal/cache": {
		"Cache.Lookup", "Cache.Peek", "Cache.Put", "Cache.Invalidate", "Cache.TouchAll",
		"Cache.InvalidateIf",
	},
	// BenchmarkBitseqBuild pins the server's build at the report's own
	// storage (none for an unchanged database).
	"internal/bitseq": {"Structure.Level", "Builder.Build"},
	// BenchmarkServerFetchShed pins a fetch the bounded downlink sheds at
	// 0 allocs/op: the pending-fetch record comes off the freelist and
	// never enters the table. BenchmarkServerFetchAdmit and its traced
	// variant pin an admitted fetch at its record, which is its own
	// completion and observer, and its completion's fan-out at nothing.
	"internal/server": {"Server.admitFetch", "pendingFetch.Fire"},
}

// Analyzer is the hotalloc check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "flag allocating constructs (make/new/append, composite literals, " +
		"closures, string<->[]byte conversions, interface boxing) in functions " +
		"annotated //mobicache:hot or in the known 0-allocs/op hot-path set",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := funcName(fd)
			if !hotAnnotated(fd) && !inKnownSet(pass.Pkg.Path(), name) {
				continue
			}
			checkHotBody(pass, name, fd.Body)
		}
	}
	return nil
}

// funcName renders a FuncDecl as "Type.Method" or "Func".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// hotMarker is the doc-comment directive that marks a function hot.
const hotMarker = "//mobicache:hot"

// hotAnnotated reports whether the function's doc comment carries the
// hotMarker directive, alone or followed by whitespace and free text
// ("//mobicache:hotter" and the like do not match).
func hotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, hotMarker)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

func inKnownSet(pkgPath, name string) bool {
	for suffix, names := range knownHot {
		if !framework.PathHasSuffix(pkgPath, suffix) {
			continue
		}
		for _, n := range names {
			if n == name {
				return true
			}
		}
	}
	return false
}

// checkHotBody walks a hot function body flagging allocating constructs.
// It does not descend into arguments of panic calls (cold by definition)
// — but it does descend into nested closures after flagging their
// creation, since the closure body runs on the hot path too.
func checkHotBody(pass *framework.Pass, name string, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return checkCall(pass, name, n)
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(),
				"hot path %s: composite literal may heap-allocate; hoist it out of the hot path or justify with //lint:allow hotalloc", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"hot path %s: closure creation allocates when captures escape; reuse a cached closure (see Population.wakes) or justify with //lint:allow hotalloc", name)
		}
		return true
	})
}

// checkCall classifies one call inside a hot body. The return value
// tells ast.Inspect whether to descend into the call's children.
func checkCall(pass *framework.Pass, name string, call *ast.CallExpr) bool {
	// Builtins make/new/append, and the panic cold-path exemption.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "panic":
				return false // a panicking run is over; its message may allocate
			case "make":
				pass.Reportf(call.Pos(), "hot path %s: make allocates; preallocate outside the hot path", name)
			case "new":
				pass.Reportf(call.Pos(), "hot path %s: new allocates; recycle through a freelist or pool", name)
			case "append":
				pass.Reportf(call.Pos(),
					"hot path %s: append may grow its backing array; presize the slice or justify the amortization with //lint:allow hotalloc", name)
			}
			return true
		}
	}

	// Conversions: string([]byte), []byte(string), []rune(string), ...
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if convAllocates(tv.Type, pass.TypesInfo.Types[call.Args[0]].Type) {
			pass.Reportf(call.Pos(),
				"hot path %s: string/byte-slice conversion copies its data; keep one representation on the hot path", name)
		}
		return true
	}

	// Interface boxing: a non-pointer concrete argument passed where the
	// callee takes an interface is materialized on the heap (pointers fit
	// in the interface word and do not allocate).
	if sig := callSignature(pass, call); sig != nil {
		checkBoxing(pass, name, call, sig)
	}
	return true
}

// callSignature resolves the signature of the called function, nil for
// type conversions and unresolvable callees.
func callSignature(pass *framework.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// checkBoxing flags non-pointer concrete arguments landing in interface
// parameters (including the variadic tail, which also allocates the
// ...args slice — append/make flags above don't see that one).
func checkBoxing(pass *framework.Pass, name string, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no per-element boxing
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			paramType = slice.Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(paramType) {
			continue
		}
		argType := pass.TypesInfo.Types[arg].Type
		if argType == nil || types.IsInterface(argType) {
			continue // interface-to-interface, or untypeable: no new box
		}
		switch argType.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // single-word values share the interface data word
		}
		if basic, ok := argType.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(),
			"hot path %s: non-pointer value boxed into interface parameter allocates; pass a pointer or avoid the interface on the hot path", name)
	}
}

// convAllocates reports whether a conversion from src to dst copies data:
// the string <-> []byte/[]rune pairs.
func convAllocates(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && (elem.Kind() == types.Byte || elem.Kind() == types.Rune ||
		elem.Kind() == types.Uint8 || elem.Kind() == types.Int32)
}
