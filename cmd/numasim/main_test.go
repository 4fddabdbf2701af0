package main

import (
	"strings"
	"testing"
)

func TestCheckShape(t *testing.T) {
	for _, tc := range []struct {
		nodes, cores int
		msg          string
	}{
		{4, 4, ""},
		{1, 1, ""},
		{1024, 1, ""},
		{0, 4, "-nodes 0 out of range (want 1..1024)"},
		{-5, 4, "-nodes -5 out of range"},
		{2000, 4, "-nodes 2000 out of range"},
		{4, 0, "-cores 0 out of range (want at least 1)"},
		{4, -1, "-cores -1 out of range"},
	} {
		err := checkShape(tc.nodes, tc.cores)
		if tc.msg == "" && err != nil || tc.msg != "" && (err == nil || !strings.Contains(err.Error(), tc.msg)) {
			t.Errorf("checkShape(%d, %d) = %v, want %q", tc.nodes, tc.cores, err, tc.msg)
		}
	}
}
