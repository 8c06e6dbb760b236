package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FieldAlign reports structs whose declared field order wastes padding
// bytes under the gc/amd64 layout rules, together with the byte counts and
// a size-ordered suggestion. It is the project's offline stand-in for
// `fieldalignment` from x/tools.
//
// It is NOT in the default set: field order is an API in two ways this
// repository cares about — encoding/json emits object keys in declaration
// order, so reordering a marshalled struct (trace.JobRecord, the jsonDataset
// wire form) changes codec output bytes; and several structs order fields
// for readability grouped by meaning rather than size. Run it
// deliberately with
//
//	go run ./cmd/simlint -only fieldalign ./...
//
// and apply only the reorderings whose structs never cross a wire. The
// hot-path reorderings applied in this tree are recorded in EXPERIMENTS.md.
var FieldAlign = &Analyzer{
	Name:    "fieldalign",
	Doc:     "report struct layouts that waste padding (opt-in; field order can be wire-visible)",
	Default: false,
	Run:     runFieldAlign,
}

func runFieldAlign(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, ok := ts.Type.(*ast.StructType); !ok {
				return true
			}
			t, ok := pass.Info.TypeOf(ts.Type).(*types.Struct)
			if !ok || t.NumFields() < 2 {
				return true
			}
			cur := pass.Sizes.Sizeof(t)
			best, order := optimalStructSize(pass.Sizes, t)
			if best < cur {
				pass.Reportf(ts.Pos(), "struct %s is %d bytes; reordering to (%s) saves %d bytes per value",
					ts.Name.Name, cur, strings.Join(order, ", "), cur-best)
			}
			return true
		})
	}
	return nil
}

// optimalStructSize computes the size of the struct with fields sorted by
// decreasing alignment then decreasing size — the greedy order the gc
// layout packs without internal padding — and returns it with the field
// order that achieves it. Stable with respect to declaration order among
// ties, so the suggestion disturbs the source as little as possible.
func optimalStructSize(sizes types.Sizes, t *types.Struct) (int64, []string) {
	n := t.NumFields()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) (align, size int64) {
		ft := t.Field(i).Type()
		return sizes.Alignof(ft), sizes.Sizeof(ft)
	}
	// Insertion sort keeps it stable without pulling in sort.SliceStable's
	// reflection for a hot loop that runs on tiny inputs.
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			aj, sj := key(idx[j])
			ak, sk := key(idx[j-1])
			if aj > ak || (aj == ak && sj > sk) {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			} else {
				break
			}
		}
	}
	fields := make([]*types.Var, n)
	order := make([]string, n)
	for i, k := range idx {
		f := t.Field(k)
		fields[i] = types.NewField(token.NoPos, f.Pkg(), f.Name(), f.Type(), f.Embedded())
		order[i] = f.Name()
	}
	return sizes.Sizeof(types.NewStruct(fields, nil)), order
}
