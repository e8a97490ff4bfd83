package accesscheck_test

import (
	"reflect"
	"testing"

	"accltl/accesscheck"
)

// TestParseID: an inclusion dependency reads in its ASCII form and in the
// ⊆ form it renders in, so a rendering reads back to the same dependency;
// malformed input, the old space-separated rendering included, is refused.
func TestParseID(t *testing.T) {
	want := accesscheck.ID{SrcRel: "R", SrcPos: []int{0, 1}, DstRel: "S", DstPos: []int{2, 3}}
	for _, src := range []string{"R[0,1]<=S[2,3]", " R[0, 1] ⊆ S[2,3] ", want.String()} {
		got, err := accesscheck.ParseID(src)
		if err != nil {
			t.Errorf("ParseID(%q): %v", src, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseID(%q) = %+v, want %+v", src, got, want)
		}
	}
	for _, src := range []string{
		"", "R[0]", "R[0]<=S", "R<=S[0]", "[0]<=S[0]", "R[0,1]<=S[2]",
		"R[]<=S[]", "R[a]<=S[0]", "R[-1]<=S[0]", "R[0 1] ⊆ S[2 3]",
	} {
		if id, err := accesscheck.ParseID(src); err == nil {
			t.Errorf("ParseID(%q) = %+v, want an error", src, id)
		}
	}
}
