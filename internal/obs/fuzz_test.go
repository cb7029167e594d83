package obs

import (
	"regexp"
	"strings"
	"testing"
)

// lintErrRe is the shape of every Lint error: a line-level fault names
// its line, and an end-of-stream histogram fault names its family.
var lintErrRe = regexp.MustCompile(`^(line [1-9][0-9]*: |histogram )`)

// FuzzLint feeds arbitrary bytes through the exposition validator.
// Every input must be accepted or rejected with a named error (see
// lintErrRe), never panic, and get the same verdict on a second pass.
// The committed seeds (testdata/fuzz/FuzzLint) are a live registry's
// WriteTo output, a histogram missing its +Inf bucket, a duplicate
// sample, a bad label escape and interleaved families.
func FuzzLint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		err := Lint(strings.NewReader(string(data)))
		if err != nil && !lintErrRe.MatchString(err.Error()) {
			t.Fatalf("unnamed lint error: %v", err)
		}
		again := Lint(strings.NewReader(string(data)))
		if (err == nil) != (again == nil) || (err != nil && err.Error() != again.Error()) {
			t.Fatalf("verdict changed between passes: %v, then %v", err, again)
		}
	})
}
