package irtext

import (
	"strings"
	"testing"

	"noelle/internal/ir"
)

const sample = `
module "demo"
linkopt "-lm"
meta "noelle.version" = "1"

global @tab : [4 x i64] = { 1, 2, 3, 4 }
global @seed : i64 = { 99 }
global @buf : [8 x f64] zeroinit

declare @print_i64 : fn(i64) void

func @kernel(%n: i64, %p: ptr<i64>) i64 !{hot="1"} {
entry:
  %acc = alloca i64, 1
  store i64 0, %acc
  br header
header:
  %i = phi i64 [ 0, entry ], [ %i2, body ]
  %c = lt %i, %n
  condbr %c, body, exit
body:
  %q = ptradd %p, %i
  %v = load i64, %q
  %old = load i64, %acc
  %new = add %old, %v
  store i64 %new, %acc !{note="acc update"}
  %i2 = add %i, 1
  br header
exit:
  %r = load i64, %acc
  call void @print_i64(%r)
  ret %r
}

func @main() i64 {
entry:
  %t = ptradd @tab, 0
  %r = call i64 @kernel(4, %t)
  %f = sitofp %r
  %g = fadd %f, 0.5
  %h = fptosi %g
  ret %h
}
`

func TestParseSample(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Name != "demo" {
		t.Errorf("module name = %q", m.Name)
	}
	if len(m.LinkOptions) != 1 || m.LinkOptions[0] != "-lm" {
		t.Errorf("linkopts = %v", m.LinkOptions)
	}
	if m.MD.Get("noelle.version") != "1" {
		t.Errorf("module metadata = %v", m.MD)
	}
	k := m.FunctionByName("kernel")
	if k == nil {
		t.Fatal("kernel not found")
	}
	if k.MD.Get("hot") != "1" {
		t.Errorf("kernel metadata = %v", k.MD)
	}
	if len(k.Blocks) != 4 {
		t.Errorf("kernel blocks = %d, want 4", len(k.Blocks))
	}
	g := m.GlobalByName("tab")
	if g == nil || len(g.Init) != 4 || g.Init[3] != 4 {
		t.Errorf("global tab = %+v", g)
	}
	if m.FunctionByName("print_i64") == nil || !m.FunctionByName("print_i64").IsDeclaration() {
		t.Error("print_i64 declaration missing")
	}
}

// TestRoundTrip checks print -> parse -> print reaches a fixed point.
func TestRoundTrip(t *testing.T) {
	m1, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s1 := ir.Print(m1)
	m2, err := Parse(s1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s1)
	}
	s2 := ir.Print(m2)
	if s1 != s2 {
		t.Errorf("round trip not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"bad keyword", `module "m"` + "\nbogus"},
		{"undefined value", `module "m"` + `
func @f() i64 {
entry:
  ret %nope
}`},
		{"undefined block", `module "m"` + `
func @f() i64 {
entry:
  br nowhere
}`},
		{"duplicate label", `module "m"` + `
func @f() i64 {
entry:
  br entry
entry:
  ret 0
}`},
		{"type mismatch", `module "m"` + `
func @f() i64 {
entry:
  %x = add 1, 2.5
  ret %x
}`},
		{"redefined value", `module "m"` + `
func @f() i64 {
entry:
  %x = add 1, 2
  %x = add 3, 4
  ret %x
}`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestParseRejectsBadArrayLengths: negative, unrepresentable and
// overflowing array lengths fail with a line-numbered error instead of
// yielding a type whose size arithmetic wraps.
func TestParseRejectsBadArrayLengths(t *testing.T) {
	for _, ty := range []string{
		"[-5 x i64]",
		"[99999999999999999999 x i64]",
		"[1099511627777 x i64]",
		"[4 x [-1 x i64]]",
		"[1048576 x [1048576 x i64]]",
	} {
		src := "module \"m\"\n\nglobal @g : " + ty + " zeroinit\n"
		_, err := Parse(src)
		if err == nil {
			t.Errorf("%s: parsed, want an error", ty)
			continue
		}
		if !strings.HasPrefix(err.Error(), "line 3: ") {
			t.Errorf("%s: error %q, want it on line 3", ty, err)
		}
	}
	if _, err := Parse("module \"m\"\nglobal @g : [0 x i64] zeroinit\n"); err != nil {
		t.Errorf("zero-length array rejected: %v", err)
	}
}

func TestParseFloatLexing(t *testing.T) {
	src := `module "m"
func @f() f64 {
entry:
  %a = fadd 1.5, -2.5
  %b = fmul %a, 1e3
  ret %b
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.FunctionByName("f")
	in := f.Blocks[0].Instrs[0]
	c := in.Ops[1].(*ir.Const)
	if c.Flt != -2.5 {
		t.Errorf("negative float constant = %v", c.Flt)
	}
}

func TestParseIndirectCall(t *testing.T) {
	src := `module "m"
func @callee(%x: i64) i64 {
entry:
  ret %x
}
func @main() i64 {
entry:
  %fp = alloca fn(i64) i64, 1
  store fn(i64) i64 @callee, %fp
  %f = load fn(i64) i64, %fp
  %r = call i64 %f(7)
  ret %r
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	main := m.FunctionByName("main")
	var call *ir.Instr
	main.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			call = in
		}
		return true
	})
	if call == nil {
		t.Fatal("no call found")
	}
	if call.CalledFunction() != nil {
		t.Error("indirect call should have no static callee")
	}
}

// TestModuleFingerprintSurvivesPrintParse: the session key the compile
// service uses must be identical for a module and its textual round
// trip — that is what lets clients ship re-printed IR and still land on
// the resident warm session.
func TestModuleFingerprintSurvivesPrintParse(t *testing.T) {
	m1, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m2, err := Parse(ir.Print(m1))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	a, b := ir.ModuleFingerprint(m1), ir.ModuleFingerprint(m2)
	if a != b {
		t.Errorf("module fingerprint changed across print->parse: %s != %s", a.Short(), b.Short())
	}
}
