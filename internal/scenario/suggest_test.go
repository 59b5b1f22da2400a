package scenario

import (
	"strings"
	"testing"
)

func TestSuggestNearMisses(t *testing.T) {
	cases := []struct {
		query string
		want  string // must appear among the suggestions
	}{
		{"fig10x", "fig10a"},
		{"ablaton-lnc", "ablation-lnc"},
		{"route-chang", "route-change"},
		{"pathtrac", "pathtrace"},
		{"FIG9", "fig9"},
	}
	for _, tc := range cases {
		got := Suggest(tc.query)
		found := false
		for _, s := range got {
			if s == tc.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Suggest(%q) = %v, want it to include %q", tc.query, got, tc.want)
		}
		if len(got) > 3 {
			t.Errorf("Suggest(%q) returned %d names, cap is 3", tc.query, len(got))
		}
	}
	if got := Suggest("zzzzqqqq"); len(got) != 0 {
		t.Errorf("Suggest(garbage) = %v, want none", got)
	}
}

func TestUnknownScenarioErrorSuggests(t *testing.T) {
	_, err := RunNames([]string{"ablaton-lnc"}, Options{Scale: Quick()})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !strings.Contains(err.Error(), "did you mean") ||
		!strings.Contains(err.Error(), "ablation-lnc") {
		t.Fatalf("miss error lacks suggestions: %v", err)
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"fig9", "fig9", 0},
		{"fig10a", "fig10c", 1},
	} {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
