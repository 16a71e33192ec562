// Package sinkretain defines an analyzer enforcing the pipeline.Sink batch
// ownership contract: WriteBatch owns its batch slice only until the call
// returns, because the producing worker reuses the slice for the next batch.
//
// The analyzer inspects every WriteBatch implementation — and every function
// literal with the emit-callback shape func(int, []Edge) error — and reports
// places where the batch slice (or a pointer into its backing array) escapes
// the call: assignment to a struct field, map/slice element, package-level or
// captured variable; a channel send; capture by a spawned goroutine; or a
// non-spread append into a retained slice. Element-wise copies such as
// append(dst, batch...) and copy(dst, batch) are recognized as safe, and
// passing the batch to another call (sink delegation, as Tee and Instrument
// do) is allowed because the callee is bound by the same contract.
//
// WriteBlockRun implementations carry the same ownership contract for block
// runs: the producer re-renders the run's template after the call returns,
// so retaining run.T (the producer's *DeltaBlockTemplate, which then
// describes a different block) is the same bug as retaining the batch; the
// analyzer also flags retaining any of the template's slices. Both shapes
// are checked: the pipeline-level func(int, BlockRun) error (declared or
// literal) and the writer-level func(*DeltaBlockTemplate, int64, int64)
// error. Reads of value-typed fields (run.RowBase, t.Len()) are copies and
// stay unflagged; run.T.CloneInto(&dst) is the sanctioned copy — a
// constant-size header copy that shares the rendering's buffers, which
// Render never writes again once it has returned.
package sinkretain

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Analyzer is the sinkretain analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "sinkretain",
	Doc:      "report WriteBatch and WriteBlockRun implementations that retain the batch slice or block template beyond the call (the producer reuses both; retained data must be copied)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// contract names one owned-until-return parameter and the wording of its
// violation reports.
type contract struct {
	owned       types.Object
	escapes     string // "<noun> escapes <method>"
	consequence string // what the producer does after the call returns
	fix         string // the sanctioned copy
}

const (
	batchConsequence = "the producer reuses the slice after the call returns"
	batchFix         = "copy the edges (append(dst, batch...))"
	runConsequence   = "the producer re-renders the template after the call returns"
	runFix           = "clone the template (run.T.CloneInto(&dst))"
	templateFix      = "clone it (t.CloneInto(&dst))"
)

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var ftype *ast.FuncType
		decl := ""
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			decl = fn.Name.Name
			body, ftype = fn.Body, fn.Type
		case *ast.FuncLit:
			// Anonymous emit callbacks (pipeline.Func literals) and
			// BlockHandler run callbacks carry the same reuse contracts;
			// require the house Edge / BlockRun type names so unrelated
			// func(int, []byte) error shapes are not flagged.
			body, ftype = fn.Body, fn.Type
		}
		var c contract
		switch {
		case decl == "WriteBatch" && emitShape(pass, ftype, false),
			decl == "" && emitShape(pass, ftype, true):
			c = contract{paramObj(pass, ftype, 1), "batch escapes WriteBatch", batchConsequence, batchFix}
		case (decl == "WriteBlockRun" || decl == "") && runShape(pass, ftype):
			c = contract{paramObj(pass, ftype, 1), "block run escapes WriteBlockRun", runConsequence, runFix}
		case decl == "WriteBlockRun" && templateShape(pass, ftype):
			c = contract{paramObj(pass, ftype, 0), "template escapes WriteBlockRun", runConsequence, templateFix}
		default:
			return
		}
		if c.owned == nil {
			return
		}
		checkFunc(pass, n, body, c)
	})
	return nil, nil
}

// emitShape reports whether ftype is (int, []T) error; with needEdge it also
// requires the slice element to be a named type called Edge.
func emitShape(pass *analysis.Pass, ftype *ast.FuncType, needEdge bool) bool {
	tv, ok := pass.TypesInfo.Types[ftype]
	if !ok {
		// FuncDecl types are recorded on the name, not the FuncType; rebuild
		// from the parameter ASTs.
		return emitShapeAST(pass, ftype, needEdge)
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	return emitSig(sig, needEdge)
}

func emitShapeAST(pass *analysis.Pass, ftype *ast.FuncType, needEdge bool) bool {
	var ptypes []types.Type
	for _, f := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		if t == nil {
			return false
		}
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			ptypes = append(ptypes, t)
		}
	}
	if len(ptypes) != 2 {
		return false
	}
	if b, ok := ptypes[0].Underlying().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	sl, ok := ptypes[1].Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if needEdge && !edgeNamed(sl.Elem()) {
		return false
	}
	if ftype.Results == nil || len(ftype.Results.List) != 1 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(ftype.Results.List[0].Type)
	return rt != nil && types.Identical(rt, types.Universe.Lookup("error").Type())
}

func emitSig(sig *types.Signature, needEdge bool) bool {
	if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	sl, ok := sig.Params().At(1).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if needEdge && !edgeNamed(sl.Elem()) {
		return false
	}
	return types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}

func edgeNamed(t types.Type) bool { return namedAs(t, "Edge") }

// namedAs reports whether t (unwrapping aliases) is a named type with the
// given name.
func namedAs(t types.Type, name string) bool {
	for {
		switch tt := t.(type) {
		case *types.Named:
			return tt.Obj().Name() == name
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return false
		}
	}
}

// paramTypes flattens ftype's parameter types (one entry per name).
func paramTypes(pass *analysis.Pass, ftype *ast.FuncType) []types.Type {
	var ptypes []types.Type
	for _, f := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		if t == nil {
			return nil
		}
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			ptypes = append(ptypes, t)
		}
	}
	return ptypes
}

// errorResult reports whether ftype returns exactly one error.
func errorResult(pass *analysis.Pass, ftype *ast.FuncType) bool {
	if ftype.Results == nil || len(ftype.Results.List) != 1 || len(ftype.Results.List[0].Names) > 1 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(ftype.Results.List[0].Type)
	return rt != nil && types.Identical(rt, types.Universe.Lookup("error").Type())
}

// runShape reports whether ftype is the pipeline-level block-run contract:
// (int, BlockRun) error, with BlockRun a named struct.
func runShape(pass *analysis.Pass, ftype *ast.FuncType) bool {
	pt := paramTypes(pass, ftype)
	if len(pt) != 2 || !errorResult(pass, ftype) {
		return false
	}
	if b, ok := pt[0].Underlying().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	if _, ok := pt[1].Underlying().(*types.Struct); !ok {
		return false
	}
	return namedAs(pt[1], "BlockRun")
}

// templateShape reports whether ftype is the writer-level block-run
// contract: (*DeltaBlockTemplate, int64, int64) error.
func templateShape(pass *analysis.Pass, ftype *ast.FuncType) bool {
	pt := paramTypes(pass, ftype)
	if len(pt) != 3 || !errorResult(pass, ftype) {
		return false
	}
	ptr, ok := pt[0].Underlying().(*types.Pointer)
	if !ok || !namedAs(ptr.Elem(), "DeltaBlockTemplate") {
		return false
	}
	for _, t := range pt[1:] {
		if b, ok := t.Underlying().(*types.Basic); !ok || b.Kind() != types.Int64 {
			return false
		}
	}
	return true
}

// paramObj returns the object of the idx'th (flattened) parameter.
func paramObj(pass *analysis.Pass, ftype *ast.FuncType, idx int) types.Object {
	var names []*ast.Ident
	for _, f := range ftype.Params.List {
		if len(f.Names) == 0 {
			names = append(names, nil)
			continue
		}
		names = append(names, f.Names...)
	}
	if idx >= len(names) || names[idx] == nil || names[idx].Name == "_" {
		return nil
	}
	return pass.TypesInfo.Defs[names[idx]]
}

// checkFunc flags escaping uses of the owned parameter (and its local
// aliases) within one target function.
func checkFunc(pass *analysis.Pass, root ast.Node, body *ast.BlockStmt, c contract) {
	tracked := map[types.Object]bool{c.owned: true}
	// Fixpoint over simple aliases: x := batch, x := batch[i:j], var x = batch.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i := range st.Rhs {
					if !aliasesTracked(pass, tracked, st.Rhs[i]) {
						continue
					}
					if addAlias(pass, tracked, st.Lhs[i], root) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) != len(st.Values) {
					return true
				}
				for i := range st.Values {
					if !aliasesTracked(pass, tracked, st.Values[i]) {
						continue
					}
					if addAlias(pass, tracked, st.Names[i], root) {
						changed = true
					}
				}
			}
			return true
		})
	}

	// Walk the body with an explicit ancestor stack and judge every use of a
	// tracked object.
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !tracked[obj] {
			return true
		}
		// Any use inside a go'ed closure races with the producer's reuse,
		// even an otherwise-safe copy: the copy itself runs after the write
		// call returned. Check before the expression walk, which would
		// otherwise stop at a safe-looking append(dst, batch...).
		for k := len(stack) - 2; k >= 2; k-- {
			fl, ok := stack[k].(*ast.FuncLit)
			if !ok {
				continue
			}
			if call, ok := stack[k-1].(*ast.CallExpr); ok && call.Fun == fl {
				if _, ok := stack[k-2].(*ast.GoStmt); ok {
					pass.Reportf(id.Pos(), "%s: captured by a goroutine; %s — %s instead", c.escapes, c.consequence, c.fix)
					return true
				}
			}
		}
		if how, bad := verdict(pass, stack, root); bad {
			pass.Reportf(id.Pos(), "%s: %s; %s — %s instead", c.escapes, how, c.consequence, c.fix)
		}
		return true
	})
}

func aliasesTracked(pass *analysis.Pass, tracked map[types.Object]bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return aliasesTracked(pass, tracked, e.X)
	case *ast.SliceExpr:
		return aliasesTracked(pass, tracked, e.X)
	case *ast.SelectorExpr:
		// run.T (and t.tail etc.) alias the tracked value only when the
		// selected field is reference-typed; a value-typed field read is a
		// copy.
		return refType(pass.TypesInfo.TypeOf(e)) && aliasesTracked(pass, tracked, e.X)
	case *ast.Ident:
		return tracked[pass.TypesInfo.Uses[e]]
	}
	return false
}

// refType reports whether t shares underlying storage when copied — the
// types whose field reads keep a tracked value tracked. Signatures are
// included: a method value closes over its receiver.
func refType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

func addAlias(pass *analysis.Pass, tracked map[types.Object]bool, lhs ast.Expr, root ast.Node) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || tracked[obj] || !within(root, obj.Pos()) {
		return false
	}
	tracked[obj] = true
	return true
}

// verdict walks upward from the tracked identifier (stack's last element)
// through its ancestors and decides whether the batch-aliasing value escapes
// the target function.
func verdict(pass *analysis.Pass, stack []ast.Node, root ast.Node) (string, bool) {
	cur := stack[len(stack)-1].(ast.Expr)
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.SliceExpr:
			if p.X != cur {
				return "", false // index position: a plain int read
			}
			cur = p // re-slice shares the backing array
		case *ast.SelectorExpr:
			if p.X != cur {
				return "", false
			}
			if !refType(pass.TypesInfo.TypeOf(p)) {
				return "", false // a value-typed field read is a copy
			}
			cur = p // run.T, t.tail: the field shares the owned storage
		case *ast.IndexExpr:
			if p.X != cur {
				return "", false
			}
			// batch[i] is an element copy; only &batch[i] aliases the buffer,
			// and that is handled when the walk reaches the UnaryExpr.
			if i > 0 {
				if u, ok := stack[i-1].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == p {
					cur = p
					continue
				}
			}
			return "", false
		case *ast.UnaryExpr:
			if p.Op == token.AND && p.X == cur {
				cur = p // pointer into the batch's backing array
				continue
			}
			return "", false
		case *ast.CallExpr:
			if p.Fun == cur {
				// Immediately invoked closure capturing batch: synchronous
				// unless spawned.
				if i > 0 {
					if _, ok := stack[i-1].(*ast.GoStmt); ok {
						return "captured by a goroutine", true
					}
				}
				return "", false
			}
			switch {
			case isBuiltin(pass, p, "append"):
				if p.Ellipsis.IsValid() && len(p.Args) > 0 && p.Args[len(p.Args)-1] == cur {
					return "", false // append(dst, batch...) copies the elements
				}
				cur = p // the result slice retains the alias as an element
			case isBuiltin(pass, p, "len"), isBuiltin(pass, p, "cap"), isBuiltin(pass, p, "copy"), isBuiltin(pass, p, "clear"):
				return "", false
			case isConversion(pass, p):
				cur = p // a conversion preserves the backing array
			default:
				if i > 0 {
					if _, ok := stack[i-1].(*ast.GoStmt); ok {
						return "passed to a spawned goroutine", true
					}
				}
				// Delegation (Tee, Instrument, a wrapped sink): the callee is
				// bound by the same ownership contract.
				return "", false
			}
		case *ast.FuncLit:
			cur = p // a closure capturing batch; judge by where the closure goes
		case *ast.KeyValueExpr:
			cur = p
		case *ast.CompositeLit:
			cur = p // a composite literal holding the alias
		case *ast.ReturnStmt, *ast.BlockStmt, *ast.ExprStmt:
			// Value flows statement-wise (a nested closure returning the
			// alias); keep walking toward the enclosing literal.
		case *ast.SendStmt:
			if p.Value == cur {
				return "sent on a channel", true
			}
			return "", false
		case *ast.GoStmt:
			return "captured by a goroutine", true
		case *ast.AssignStmt:
			idx := -1
			for k, r := range p.Rhs {
				if r == cur {
					idx = k
				}
			}
			if idx < 0 || idx >= len(p.Lhs) {
				return "", false
			}
			return lhsEscape(pass, p.Lhs[idx], root)
		case *ast.ValueSpec:
			idx := -1
			for k, v := range p.Values {
				if v == cur {
					idx = k
				}
			}
			if idx < 0 || idx >= len(p.Names) {
				return "", false
			}
			return "", false // var x = batch declares a local; alias tracking covers it
		default:
			return "", false
		}
	}
	return "", false
}

// lhsEscape judges an assignment target holding a batch alias.
func lhsEscape(pass *analysis.Pass, lhs ast.Expr, root ast.Node) (string, bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return "", false
		}
		obj := pass.TypesInfo.ObjectOf(l)
		if obj == nil || within(root, obj.Pos()) {
			return "", false // local alias; tracked separately
		}
		return fmt.Sprintf("stored in %s declared outside the function", l.Name), true
	case *ast.SelectorExpr:
		return fmt.Sprintf("stored in %s", types.ExprString(l)), true
	case *ast.IndexExpr:
		return fmt.Sprintf("stored in element %s", types.ExprString(l)), true
	case *ast.StarExpr:
		return fmt.Sprintf("stored through pointer %s", types.ExprString(l)), true
	}
	return "", false
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

func isConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

func within(root ast.Node, pos token.Pos) bool {
	return root.Pos() <= pos && pos < root.End()
}
