package lang_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"selspec/internal/gen"
	"selspec/internal/lang"
	"selspec/internal/programs"
)

var updateFrontEnd = flag.Bool("update-frontend", false, "rewrite testdata/frontend.golden")

const frontEndGolden = "testdata/frontend.golden"

// nonASCIISources exercise the lexer's rune path: non-ASCII letters and
// digits in identifiers and numbers, multi-byte runes before a token
// (columns count runes, not bytes), non-ASCII space and marks that are
// not letters, and invalid UTF-8.
var nonASCIISources = []string{
	"café", "π", "日本語", "_ñ1", "a١", "x٣y", "Ωmega := 1",
	"١٢٣", "１２", "12é", "3π", "12_",
	"\"héllo\" + x", "\"日本\" x", "-- ünïcode comment\nfoo", "// ☃\nbar",
	"é x", "é", "​x", "\xff", "a\xffb", "\"\xff\"", "\xc3",
	"method main() { var café := 1; café + 2; }",
	"method main() { var 变量 := \"値\"; println(变量); }",
	"method main() { var x := ١; x; }",
	"method main() { ö(１); }",
	"class Ünïcode { field ß := 1; }\nmethod main() { new Ünïcode().ß; }",
}

// TestFrontEndGolden pins everything the front end produces: every
// token (kind, text, line, column) the lexer yields up to EOF or its
// error, and the whole parse tree or error text, for the fuzz seed
// corpus, five 200-class generated programs, the non-ASCII cases and
// every single-token deletion from Richards. Regenerate with
// -update-frontend only for an intended change of the language.
func TestFrontEndGolden(t *testing.T) {
	richards := programs.Richards().Source
	groups := []struct {
		name string
		srcs []string
	}{
		{"seeds", seedSources(t)},
		{"corpus", corpusSources(t)},
		{"gen200", genSources()},
		{"nonascii", nonASCIISources},
		{"richards-deletions", tokenDeletions(t, richards)},
	}
	var out strings.Builder
	for _, g := range groups {
		h := sha256.New()
		for _, src := range g.srcs {
			frontEndDump(h, src)
		}
		fmt.Fprintf(&out, "%s sources=%d sha256=%x\n", g.name, len(g.srcs), h.Sum(nil))
	}
	if *updateFrontEnd {
		if err := os.WriteFile(frontEndGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontEndGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("front-end output changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// frontEndDump writes src's token stream and parse result to h.
func frontEndDump(h hash.Hash, src string) {
	io.WriteString(h, "source\n")
	lx := lang.NewLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			fmt.Fprintf(h, "lex error %v\n", err)
			break
		}
		fmt.Fprintf(h, "tok %d %q %d:%d\n", tok.Kind, tok.Text, tok.Pos.Line, tok.Pos.Col)
		if tok.Kind == lang.EOF {
			break
		}
	}
	prog, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintf(h, "parse error %v\n", err)
		return
	}
	dumpAST(h, reflect.ValueOf(prog))
	io.WriteString(h, "\n")
}

// dumpAST renders an AST value with every field, position included.
// A nil slice and an empty one render apart: the parser keeps that
// difference (call arguments are never nil).
func dumpAST(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		dumpAST(w, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			dumpAST(w, v.Field(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			dumpAST(w, v.Index(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Int, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	default:
		panic(fmt.Sprintf("dumpAST: unhandled kind %s", v.Kind()))
	}
}

// corpusSources reads the FuzzLexer and FuzzParser regression inputs.
func corpusSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, target := range []string{"FuzzLexer", "FuzzParser"} {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no %s corpus: %v", target, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
			src, err := strconv.Unquote(arg)
			if len(lines) != 2 || err != nil {
				t.Fatalf("%s: not a one-string corpus entry", p)
			}
			srcs = append(srcs, src)
		}
	}
	return srcs
}

func genSources() []string {
	var srcs []string
	for seed := uint64(1); seed <= 5; seed++ {
		srcs = append(srcs, gen.New(gen.Config{Seed: seed, Classes: 200}).Source())
	}
	return srcs
}

// tokenDeletions returns src once per token, with that token and the
// blank and comment text after it (up to the next token) removed.
func tokenDeletions(t *testing.T, src string) []string {
	t.Helper()
	toks, err := lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	var lineStart []int
	for off := 0; ; {
		lineStart = append(lineStart, off)
		i := strings.IndexByte(src[off:], '\n')
		if i < 0 {
			break
		}
		off += i + 1
	}
	offset := func(p lang.Pos) int {
		off := lineStart[p.Line-1]
		for col := 1; col < p.Col; col++ {
			_, w := utf8.DecodeRuneInString(src[off:])
			off += w
		}
		return off
	}
	var out []string
	for i := 0; i+1 < len(toks); i++ {
		out = append(out, src[:offset(toks[i].Pos)]+src[offset(toks[i+1].Pos):])
	}
	return out
}
