package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxCheckedRows bounds how many rows of one job are decoded and checked
// against ground truth; larger jobs are checked at an even stride so the
// client's own CPU use stays small next to the server's.
const maxCheckedRows = 2048

// rowChecker counts a job's result rows and checks a sample of them against
// the payload's ground truth. Rows arrive in read order, one per read.
type rowChecker struct {
	p       *payload
	mem     bool
	stride  int
	rows    int
	known   int   // checked reads with a known origin
	correct int   // of those, reported at the origin on the right strand
	err     error // first failed check
}

func newRowChecker(p *payload, mem bool) *rowChecker {
	return &rowChecker{p: p, mem: mem, stride: max(1, p.reads()/maxCheckedRows)}
}

// row takes the next NDJSON result row.
func (c *rowChecker) row(line []byte) {
	i := c.rows
	c.rows++
	if c.err != nil || i%c.stride != 0 {
		return
	}
	if i >= len(c.p.truth) {
		c.err = fmt.Errorf("row %d beyond the job's %d reads", i, len(c.p.truth))
		return
	}
	t := c.p.truth[i]
	var known, ok bool
	var err error
	if c.mem {
		known, ok, err = checkMemRow(line, t, c.p.readLen)
	} else {
		known, ok, err = checkExactRow(line, t)
	}
	if err != nil {
		c.err = fmt.Errorf("row %d: %w", i, err)
		return
	}
	if known {
		c.known++
		if ok {
			c.correct++
		}
	}
}

// finish checks the row count against the read count.
func (c *rowChecker) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.rows != c.p.reads() {
		return fmt.Errorf("%d result rows for %d reads", c.rows, c.p.reads())
	}
	return nil
}

type exactRow struct {
	Mapped      bool   `json:"mapped"`
	FwPositions string `json:"fw_positions"`
	RcPositions string `json:"rc_positions"`
}

// checkExactRow reports whether the read has a known origin and whether the
// row lists it on the read's strand. An error-free read that is not reported
// at its origin is an error: exact search must find it.
func checkExactRow(line []byte, t truth) (known, ok bool, err error) {
	var r exactRow
	if err := json.Unmarshal(line, &r); err != nil {
		return false, false, fmt.Errorf("bad exact row %q: %w", line, err)
	}
	if t.origin < 0 {
		return false, false, nil
	}
	positions := r.FwPositions
	if t.rev {
		positions = r.RcPositions
	}
	ok, err = listsPosition(positions, t.origin)
	if err != nil {
		return true, false, err
	}
	if t.exact && !ok {
		return true, false, fmt.Errorf("error-free read from %d (reverse %v) not reported there: fw=%q rc=%q",
			t.origin, t.rev, r.FwPositions, r.RcPositions)
	}
	return true, ok, nil
}

// listsPosition parses a comma-joined position list ("-" when empty).
func listsPosition(list string, want int) (bool, error) {
	if list == "-" || list == "" {
		return false, nil
	}
	for _, f := range strings.Split(list, ",") {
		p, err := strconv.Atoi(f)
		if err != nil {
			return false, fmt.Errorf("bad position %q", f)
		}
		if p == want {
			return true, nil
		}
	}
	return false, nil
}

type memRow struct {
	Mapped bool `json:"mapped"`
	Flag   int  `json:"flag"`
	Pos    int  `json:"pos"` // 1-based SAM POS
}

const samFlagReverse = 0x10

// checkMemRow reports whether the read has a known origin and whether its
// primary alignment lies within one read length of it on the right strand.
func checkMemRow(line []byte, t truth, readLen int) (known, ok bool, err error) {
	var r memRow
	if err := json.Unmarshal(line, &r); err != nil {
		return false, false, fmt.Errorf("bad mem row %q: %w", line, err)
	}
	if t.origin < 0 {
		return false, false, nil
	}
	if !r.Mapped || (r.Flag&samFlagReverse != 0) != t.rev {
		return true, false, nil
	}
	d := r.Pos - 1 - t.origin
	return true, d >= -readLen && d <= readLen, nil
}
