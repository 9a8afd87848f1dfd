// Package deadfields is the fixture of TestStructFieldRuleBites: a
// field named dead* is written and never read, one named live* is read
// by a form the rule must count.
package deadfields

// key is a map key: a lookup compares a and b, so both are read.
type key struct{ a, b int }

type state struct {
	deadAssigned   int
	deadOpAssigned int
	deadIncDec     int
	deadLitKey     int
	deadIndexed    map[int]int
	deadDeleted    map[int]bool
	deadAppended   []int
	deadTestOnly   int

	liveLen      []int
	liveAddr     int
	liveAppended []int
	liveInner    *inner
	liveByKey    map[key]int
}

type inner struct{ deadSet int }

func run() int {
	s := &state{deadLitKey: 1, liveInner: &inner{}, liveByKey: map[key]int{{a: 1, b: 2}: 3}}
	s.deadAssigned = 1
	s.deadOpAssigned += 2
	s.deadIncDec++
	s.deadIndexed[1] = 2
	delete(s.deadDeleted, 1)
	s.deadAppended = append(s.deadAppended, 1)
	s.deadTestOnly = 4

	s.deadAppended = append(s.liveAppended, 1)
	s.liveInner.deadSet = 5
	bump(&s.liveAddr)
	return len(s.liveLen) + s.liveByKey[key{}]
}

func bump(p *int) { *p++ }
