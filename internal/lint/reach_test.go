package lint_test

import (
	"go/ast"
	"go/parser"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// testOnlyKeep lists the exported declarations in internal/ that no binary
// and no benchmark reaches but that stay in production code, each with the
// reason it stays. Anything else TestNoTestOnlyExports finds unreachable is
// test-only code: delete it, or move it into the one package's _test.go
// that uses it.
var testOnlyKeep = map[string]string{
	"stats.FractionAbove": "row reference that core/naive_test.go and the workload calibration tests compare against",
	"stats.FractionBelow": "row reference that core/naive_test.go compares against",
	"stats.Quantiles":     "row reference the workload calibration tests compare against",
	"stats.Agg.StdDev":    "slurm's replication tests compare aggregates field by field",

	"cluster.Cluster.CheckInvariants": "the cluster spec: the cluster and slurm tests check it after every allocation and run",
	"cluster.Cluster.FreeGPUs":        "slurm's drain tests check every GPU is returned",
	"cluster.Cluster.LiveAllocations": "slurm's drain tests check every allocation is released",
	"gpu.LinearPowerModel":            "the power-model ablation in bench_test.go swaps it in for the affine model",

	"core.Phases":                 "Fig. 6 on its own, as every other figure has one: the root figure benchmarks and the IID-profile ablation call it, while Characterize fuses it with Fig. 7a",
	"core.ActiveVariability":      "Fig. 7a on its own, for the root figure benchmark; Characterize fuses it with Fig. 6",
	"trace.Dataset.ByInterface":   "row reference that core/naive_test.go compares against",
	"trace.Dataset.MultiGPUJobs":  "row reference that core/naive_test.go compares against",
	"trace.MaxValues":             "row reference that core/naive_test.go and the workload calibration tests compare against",
	"metrics.SummaryRecord.Valid": "the digest invariant the metrics, gpu, monitor and workload tests check every produced digest against",

	"durable/client.New":               "the retrying, idempotent ingest client the simcloudd chaos harness drives the server through",
	"durable/client.Client.IngestBody": "the chaos harness's ingest call: content-hash batch IDs over blind retries",
}

// TestNoTestOnlyExports keeps production packages free of code only tests
// reach. It type-checks the module and computes what is reachable from
// every main package (cmd/, examples/), every init function and blank
// package-level var, and every identifier the benchmark module _perfbench
// (tests included) mentions. It follows each declaration's uses; a method
// of a reachable type is also reachable when the type satisfies an
// interface that reachable code mentions, or when the method is one the
// standard library calls dynamically (fmt, encoding/json, errors). Every
// exported function, method, type, var and const in internal/ left over
// must be on testOnlyKeep.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader(root, "repro")
	paths, err := lint.ModulePackages(root, "repro")
	if err != nil {
		t.Fatal(err)
	}
	r := newReach()
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		r.addPackage(p.Files, p.Info, p.Types.Name() == "main")
	}
	bench, benchInfo, err := checkPerfbench(l, filepath.Join(root, "_perfbench"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range bench {
		r.rootUses(f, benchInfo)
	}
	r.solve()
	// Kept declarations are roots too, so what they use needs no entry.
	internal := internalDecls(l, paths)
	for name := range testOnlyKeep {
		o, ok := internal[name]
		switch {
		case !ok:
			t.Errorf("testOnlyKeep lists %s, which is gone; drop the entry", name)
		case r.live[o]:
			t.Errorf("testOnlyKeep lists %s, which production code reaches; drop the entry", name)
		default:
			r.mark(o)
		}
	}
	r.solve()

	var dead []string
	for name, o := range internal {
		if !r.live[o] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s: exported but reachable only from tests; delete it, move it into the _test.go of the one package that uses it, or add it to testOnlyKeep with a reason", name)
	}
}

// internalDecls maps the exported top-level declarations of the packages
// under internal/ to names of the form "pkg.Name" or "pkg.Recv.Method".
func internalDecls(l *lint.Loader, paths []string) map[string]types.Object {
	out := make(map[string]types.Object)
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		p, _ := l.Load(path)
		for _, f := range p.Files {
			for _, o := range declaredObjects(f, p.Info) {
				if !o.Exported() {
					continue
				}
				name := rel + "." + o.Name()
				if recv := recvName(o); recv != "" {
					name = rel + "." + recv + "." + o.Name()
				}
				out[name] = o
			}
		}
	}
	return out
}

// checkPerfbench type-checks the benchmark module's sources, tests
// included, against the loader's view of this module.
func checkPerfbench(l *lint.Loader, dir string) ([]*ast.File, *types.Info, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: l}
	if _, err := conf.Check("repro/perfbench", l.Fset, files, info); err != nil {
		return nil, nil, err
	}
	return files, info, nil
}

// dynamicMethods are methods the standard library invokes through
// interfaces or reflection that module code never names: fmt's
// Stringer/Formatter, encoding/json's and encoding's marshalers, and the
// errors package's Is/As/Unwrap.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Error": true, "Is": true, "As": true, "Unwrap": true,
}

// reach is a reachability pass over type-checked declarations.
type reach struct {
	deps   map[types.Object][]types.Object // declaration → objects its source uses
	live   map[types.Object]bool
	queue  []types.Object
	seen   map[types.Type]bool
	named  []*types.Named // reachable named types, instances included
	ifaces []*types.Interface
}

func newReach() *reach {
	return &reach{
		deps: make(map[types.Object][]types.Object),
		live: make(map[types.Object]bool),
		seen: make(map[types.Type]bool),
	}
}

// addPackage records what each top-level declaration of a package uses.
// Init functions and blank vars are roots everywhere; main is a root in a
// main package.
func (r *reach) addPackage(files []*ast.File, info *types.Info, isMain bool) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main") {
					r.rootUses(d, info)
					continue
				}
				o := info.Defs[d.Name]
				r.deps[o] = append(r.deps[o], uses(d, info)...)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						o := info.Defs[s.Name]
						r.deps[o] = append(r.deps[o], uses(s, info)...)
					case *ast.ValueSpec:
						u := uses(s, info)
						for _, n := range s.Names {
							if n.Name == "_" {
								r.rootUses(s, info)
								continue
							}
							o := info.Defs[n]
							r.deps[o] = append(r.deps[o], u...)
						}
					}
				}
			}
		}
	}
}

// rootUses marks everything a syntax tree uses as reachable.
func (r *reach) rootUses(n ast.Node, info *types.Info) {
	for _, o := range uses(n, info) {
		r.mark(o)
	}
}

func uses(n ast.Node, info *types.Info) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				out = append(out, origin(o))
			}
		}
		return true
	})
	return out
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func (r *reach) mark(o types.Object) {
	if r.live[o] {
		return
	}
	r.live[o] = true
	r.queue = append(r.queue, o)
}

// solve propagates reachability to a fixed point: declarations' uses, the
// types of reachable objects, and interface-dispatched methods.
func (r *reach) solve() {
	for {
		for len(r.queue) > 0 {
			o := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walkType(o.Type())
			for _, d := range r.deps[o] {
				r.mark(d)
			}
		}
		for i := 0; i < len(r.named); i++ {
			r.dispatch(r.named[i])
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

// walkType records the named types and interfaces a reachable object's
// type mentions.
func (r *reach) walkType(t types.Type) {
	if t == nil || r.seen[t] {
		return
	}
	r.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		r.mark(t.Obj())
		r.named = append(r.named, t)
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				r.walkType(args.At(i))
			}
		}
		r.walkType(t.Underlying())
	case *types.Alias:
		r.walkType(types.Unalias(t))
	case *types.Pointer:
		r.walkType(t.Elem())
	case *types.Slice:
		r.walkType(t.Elem())
	case *types.Array:
		r.walkType(t.Elem())
	case *types.Map:
		r.walkType(t.Key())
		r.walkType(t.Elem())
	case *types.Chan:
		r.walkType(t.Elem())
	case *types.Signature:
		r.walkType(t.Params())
		r.walkType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.walkType(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.walkType(t.Field(i).Type())
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			r.ifaces = append(r.ifaces, t)
		}
		for i := 0; i < t.NumMethods(); i++ {
			r.walkType(t.Method(i).Type())
		}
	}
}

// dispatch marks the methods of a reachable named type that a reachable
// interface, or the standard library's dynamic calls, can invoke.
func (r *reach) dispatch(n *types.Named) {
	if pkg := n.Obj().Pkg(); pkg == nil || !strings.HasPrefix(pkg.Path(), "repro") {
		return
	}
	if _, ok := n.Underlying().(*types.Interface); ok || n.TypeParams() != nil && n.TypeArgs() == nil {
		return
	}
	ptr := types.NewPointer(n)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); dynamicMethods[m.Name()] {
			r.mark(origin(m))
		}
	}
	for _, it := range r.ifaces {
		if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			r.mark(origin(ms.Lookup(m.Pkg(), m.Name()).Obj()))
		}
	}
}

// declaredObjects lists a file's top-level functions, methods, types, vars
// and consts.
func declaredObjects(f *ast.File, info *types.Info) []types.Object {
	var out []types.Object
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, info.Defs[d.Name])
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, n := range s.Names {
						out = append(out, info.Defs[n])
					}
				}
			}
		}
	}
	return out
}

// recvName is the receiver type's name for a method, "" otherwise.
func recvName(o types.Object) string {
	f, ok := o.(*types.Func)
	if !ok {
		return ""
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
