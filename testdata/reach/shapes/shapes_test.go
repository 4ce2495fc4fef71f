package shapes

import "testing"

func TestRunVerbose(t *testing.T) {
	if got := Run(Config{Name: "x", Verbose: true}); got != "verbose x" {
		t.Errorf("Run = %q", got)
	}
}
