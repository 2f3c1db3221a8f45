package main

import (
	"strings"
	"testing"
)

func TestCheckExactRow(t *testing.T) {
	for _, tc := range []struct {
		name        string
		row         string
		truth       truth
		known, ok   bool
		errContains string
	}{
		{"forward hit", `{"mapped":true,"fw_positions":"7,120","rc_positions":"-"}`, truth{origin: 120, exact: true}, true, true, ""},
		{"reverse hit", `{"mapped":true,"fw_positions":"-","rc_positions":"55"}`, truth{origin: 55, rev: true, exact: true}, true, true, ""},
		{"wrong strand", `{"mapped":true,"fw_positions":"55","rc_positions":"-"}`, truth{origin: 55, rev: true, exact: true}, true, false, "not reported"},
		{"missing error-free", `{"mapped":false,"fw_positions":"-","rc_positions":"-"}`, truth{origin: 9, exact: true}, true, false, "not reported"},
		{"missing read with errors", `{"mapped":false,"fw_positions":"-","rc_positions":"-"}`, truth{origin: 9}, true, false, ""},
		{"random read", `{"mapped":false,"fw_positions":"-","rc_positions":"-"}`, truth{origin: -1}, false, false, ""},
		{"bad position", `{"mapped":true,"fw_positions":"x","rc_positions":"-"}`, truth{origin: 1, exact: true}, true, false, "bad position"},
		{"bad json", `{"mapped":`, truth{origin: 1}, false, false, "bad exact row"},
	} {
		known, ok, err := checkExactRow([]byte(tc.row), tc.truth)
		if known != tc.known || ok != tc.ok {
			t.Errorf("%s: known=%v ok=%v, want %v %v", tc.name, known, ok, tc.known, tc.ok)
		}
		if (err != nil) != (tc.errContains != "") || (err != nil && !strings.Contains(err.Error(), tc.errContains)) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.errContains)
		}
	}
}

func TestCheckMemRow(t *testing.T) {
	const l = 150
	for _, tc := range []struct {
		name      string
		row       string
		truth     truth
		known, ok bool
	}{
		{"forward at origin", `{"mapped":true,"flag":99,"pos":1001}`, truth{origin: 1000}, true, true},
		{"reverse within a read length", `{"mapped":true,"flag":147,"pos":1300}`, truth{origin: 1200, rev: true}, true, true},
		{"too far", `{"mapped":true,"flag":99,"pos":1152}`, truth{origin: 1000}, true, false},
		{"wrong strand", `{"mapped":true,"flag":83,"pos":1001}`, truth{origin: 1000}, true, false},
		{"unmapped", `{"mapped":false,"flag":4}`, truth{origin: 1000}, true, false},
		{"random pair", `{"mapped":true,"flag":99,"pos":5}`, truth{origin: -1}, false, false},
	} {
		known, ok, err := checkMemRow([]byte(tc.row), tc.truth, l)
		if err != nil || known != tc.known || ok != tc.ok {
			t.Errorf("%s: known=%v ok=%v err=%v, want %v %v", tc.name, known, ok, err, tc.known, tc.ok)
		}
	}
}

func TestRowCheckerCountsRowsAndStopsAtFirstFailure(t *testing.T) {
	p := &payload{truth: []truth{{origin: 3, exact: true}, {origin: -1}}}
	c := newRowChecker(p, false)
	c.row([]byte(`{"mapped":true,"fw_positions":"3","rc_positions":"-"}`))
	if err := c.finish(); err == nil || !strings.Contains(err.Error(), "1 result rows for 2 reads") {
		t.Fatalf("short job: err = %v", err)
	}
	c.row([]byte(`{"mapped":false,"fw_positions":"-","rc_positions":"-"}`))
	if err := c.finish(); err != nil || c.known != 1 || c.correct != 1 {
		t.Fatalf("full job: err=%v known=%d correct=%d", err, c.known, c.correct)
	}
	c.row([]byte(`{}`))
	if err := c.finish(); err == nil {
		t.Fatal("extra row not reported")
	}
}
