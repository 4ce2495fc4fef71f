package shapes

// Writes has one field per form of write the guard counts; Exercise writes
// each field in its form and reads them all, so the guard flags none.
type Writes struct {
	Assigned  int
	Chained   struct{ Inner int }
	Indexed   [2]int
	Addressed int
	Sliced    [2]int
	Counter   counter
	Bumped    int
	Keyed     int
	Derived   Derived
}

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// Derived is written only through its promoted field ID.
type Derived struct{ Base }

// Base is Derived's embedded struct.
type Base struct{ ID int }

// Positional is written only by a positional composite literal.
type Positional struct{ A, B int }

// Exercise writes and reads every field of Writes and Positional.
func Exercise() int {
	w := Writes{Keyed: 1}
	w.Assigned = 2
	w.Chained.Inner = 3
	w.Indexed[1] = 4
	p := &w.Addressed
	*p = 5
	copy(w.Sliced[:], []int{6})
	w.Counter.inc()
	w.Bumped++
	w.Derived.ID = 7
	pos := Positional{8, 9}
	return w.Assigned + w.Chained.Inner + w.Indexed[1] + w.Addressed + w.Sliced[0] +
		w.Counter.n + w.Bumped + w.Keyed + w.Derived.Base.ID + pos.A + pos.B
}
