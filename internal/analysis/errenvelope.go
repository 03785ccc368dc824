package analysis

import (
	"go/ast"
	"go/constant"
)

// envelopeScope lists the packages that implement HTTP handlers for the
// public API: the job engine behind both daemon modes.
var envelopeScope = map[string]bool{
	"c3d/internal/campaign": true,
}

// envelopeHelpers are the only functions allowed to touch the raw error
// plumbing: writeError produces the envelope, writeJSON sets the status code
// for it (and for success bodies).
var envelopeHelpers = map[string]bool{
	"writeJSON":  true,
	"writeError": true,
}

// ErrEnvelopeAnalyzer keeps every API error on the uniform envelope.
var ErrEnvelopeAnalyzer = &Analyzer{
	Name: "errenvelope",
	Doc: `HTTP handlers must write errors through the uniform envelope helper

Clients branch on the machine-readable code in {"error":{"code","message"}};
a raw http.Error or a hand-rolled WriteHeader(4xx/5xx)+body hands them an
unparseable response. In internal/campaign, handlers may not call
http.Error at all, and may only pass a constant status >= 400 to
WriteHeader inside the envelope helpers themselves (writeJSON/writeError).
The one legitimate exception — a failed job whose body is a result document,
not an error — is annotated //c3dlint:allow errenvelope(reason).`,
	Run: runErrEnvelope,
}

func runErrEnvelope(pass *Pass) error {
	if !envelopeScope[pass.Pkg.Path] {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		var stack []*ast.FuncDecl
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					stack = append(stack, n)
					if n.Body != nil {
						walk(n.Body)
					}
					stack = stack[:len(stack)-1]
					return false
				case *ast.CallExpr:
					checkErrWrite(pass, stack, n)
				}
				return true
			})
		}
		walk(f)
	}
	return nil
}

func checkErrWrite(pass *Pass, stack []*ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if pkgPath, name := calleePackageFunc(info, call); pkgPath == "net/http" && name == "Error" {
		pass.Reportf(call.Pos(), "http.Error bypasses the error envelope; use writeError so clients get {\"error\":{code,message}}")
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return
	}
	// Only flag constant error statuses: a variable status is the envelope
	// helper's parameterisation, which is exactly where it belongs.
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return
	}
	status, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || status < 400 {
		return
	}
	if len(stack) > 0 && envelopeHelpers[stack[len(stack)-1].Name.Name] {
		return
	}
	pass.Reportf(call.Pos(), "WriteHeader(%d) writes an error status outside the envelope helpers; use writeError, or annotate //c3dlint:allow errenvelope(reason) if the body is not an error document", status)
}
