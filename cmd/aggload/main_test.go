package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// quietAudit runs audit with its census printed to a discarded stdout.
func quietAudit(t *testing.T, outcomes []outcome, maxP99 time.Duration, minOK int) int {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	return audit(outcomes, time.Second, maxP99, minOK)
}

func oks(lats ...time.Duration) []outcome {
	out := make([]outcome, len(lats))
	for i, l := range lats {
		out[i] = outcome{kind: "ok", latency: l}
	}
	return out
}

func TestAudit(t *testing.T) {
	var expected []outcome
	for code := range expectedCodes {
		expected = append(expected, outcome{kind: code, detail: "typed"})
	}
	// 98 fast successes (at full capacity, so each case's append copies):
	// two more make a hundred, and the p99 is the second slowest of them.
	fast := make([]outcome, 98)
	for i := range fast {
		fast[i] = outcome{kind: "ok", latency: time.Millisecond}
	}
	cases := []struct {
		name     string
		outcomes []outcome
		maxP99   time.Duration
		minOK    int
		want     int
	}{
		{"all ok", oks(time.Millisecond, 2*time.Millisecond), 0, 1, 0},
		{"every expected code is counted, not failed", append(oks(time.Millisecond), expected...), 0, 1, 0},
		{"untyped outcome", append(oks(time.Millisecond), outcome{kind: "transport", detail: "refused"}), 0, 1, 1},
		{"malformed body", append(oks(time.Millisecond), outcome{kind: "malformed", detail: "no trailer"}), 0, 1, 1},
		{"internal is never expected", append(oks(time.Millisecond), outcome{kind: "internal"}), 0, 1, 1},
		{"internal_panic is never expected", append(oks(time.Millisecond), outcome{kind: "internal_panic"}), 0, 1, 1},
		{"unknown code", append(oks(time.Millisecond), outcome{kind: "teapot"}), 0, 1, 1},
		{"min-ok met exactly", oks(time.Millisecond, time.Millisecond), 0, 2, 0},
		{"min-ok missed", append(oks(time.Millisecond), expected...), 0, 2, 1},
		{"no success at all", expected, 0, 1, 1},
		{"min-ok 0 allows none", expected, 0, 0, 0},
		{"p99 within bound", append(fast, oks(5*time.Millisecond, 5*time.Millisecond)...), 5 * time.Millisecond, 1, 0},
		{"p99 above bound", append(fast, oks(6*time.Millisecond, 6*time.Millisecond)...), 5 * time.Millisecond, 1, 1},
		{"one slow request in a hundred is not the p99", append(fast, oks(time.Millisecond, time.Hour)...), 5 * time.Millisecond, 1, 0},
		{"p99 ignores typed rejections", append(oks(time.Millisecond), outcome{kind: "shed", latency: time.Hour}), 5 * time.Millisecond, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := quietAudit(t, c.outcomes, c.maxP99, c.minOK); got != c.want {
				t.Fatalf("audit = %d, want %d", got, c.want)
			}
		})
	}
}

func TestValidateResult(t *testing.T) {
	const rows = "{\"g\":1,\"a\":[2]}\n{\"g\":3,\"a\":[4]}\n{\"done\":true,\"rows\":2}\n"
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"header without mode", `{"cache":"miss","groups":2}` + "\n" + rows, true},
		{"header with mode spill", `{"cache":"miss","groups":2,"mode":"spill"}` + "\n" + rows, true},
		{"header with a retired mode", `{"cache":"miss","groups":2,"mode":"external"}` + "\n" + rows, false},
		{"header without groups", `{"cache":"miss"}` + "\n" + rows, false},
		{"empty body", "", false},
		{"group count disagrees", `{"groups":3}` + "\n" + rows, false},
		{"trailer count disagrees", `{"groups":2}` + "\n" + "{\"g\":1}\n{\"g\":3}\n{\"done\":true,\"rows\":1}\n", false},
		{"no trailer", `{"groups":2}` + "\n" + "{\"g\":1}\n{\"g\":3}\n", false},
		{"row without a group", `{"groups":1}` + "\n" + "{\"a\":[1]}\n{\"done\":true,\"rows\":1}\n", false},
		{"data after the trailer", `{"groups":2}` + "\n" + rows + "{\"g\":5}\n", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := &http.Response{Body: io.NopCloser(strings.NewReader(c.body))}
			if err := validateResult(resp); (err == nil) != c.ok {
				t.Fatalf("validateResult = %v, want ok=%v", err, c.ok)
			}
		})
	}
}
