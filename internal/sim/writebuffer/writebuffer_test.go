package writebuffer

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestPushPopFIFO(t *testing.T) {
	b := New(4)
	if !b.Empty() || b.Full() || b.Len() != 0 || b.Capacity() != 4 {
		t.Fatal("fresh buffer state wrong")
	}
	e1, err := b.Push(10, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.Push(20, true, 101)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Empty() {
		t.Fatal("length wrong after pushes")
	}
	if b.Head() != e1 {
		t.Error("head should be the oldest entry")
	}
	if got := b.Pop(); got.ID != 0 || got.Line != 10 {
		t.Errorf("Pop = %+v, want the first push", got)
	}
	if b.Head() != e2 {
		t.Error("head should advance after removal")
	}
	if b.Head().IsRMWWrite != true || b.Head().Line != 20 || b.Head().EnqueuedAt != 101 {
		t.Error("entry fields lost")
	}
}

func TestPushFullRejects(t *testing.T) {
	b := New(2)
	if _, err := b.Push(1, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Push(2, false, 0); err != nil {
		t.Fatal(err)
	}
	if !b.Full() {
		t.Fatal("buffer should be full")
	}
	if _, err := b.Push(3, false, 0); err == nil {
		t.Fatal("push into a full buffer must fail")
	}
	if b.Len() != 2 {
		t.Error("failed push must not grow the buffer")
	}
}

func TestContains(t *testing.T) {
	b := New(8)
	b.Push(100, false, 0)
	b.Push(200, false, 0)
	b.Push(100, false, 0)
	if !b.Contains(100) || !b.Contains(200) || b.Contains(300) {
		t.Error("Contains wrong")
	}
	b.Pop()
	b.Pop()
	if !b.Contains(100) || b.Contains(200) {
		t.Error("Contains must see only the entries still pending")
	}
}

func TestGetFindsEntriesByPushID(t *testing.T) {
	b := New(3)
	for i := 0; i < 3; i++ {
		b.Push(uint64(10+i), false, 0)
	}
	b.Pop()
	b.Pop()
	// The ring wraps: IDs 3 and 4 reuse the slots of IDs 0 and 1.
	b.Push(13, false, 0)
	e4, _ := b.Push(14, true, 0)
	if e4.ID != 4 {
		t.Fatalf("fifth push has ID %d, want 4", e4.ID)
	}
	for id := uint64(2); id <= 4; id++ {
		if e := b.Get(id); e == nil || e.ID != id || e.Line != 10+id {
			t.Errorf("Get(%d) = %+v", id, e)
		}
	}
	if b.Get(1) != nil || b.Get(5) != nil {
		t.Error("Get must return nil for popped and unpushed IDs")
	}
	if b.Head().ID != 2 || b.At(2) != e4 {
		t.Error("At must index from the head across the wrap")
	}
	if b.Head() != b.At(0) {
		t.Error("At(0) must be the head")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	b := New(1)
	b.Push(1, false, 0)
	b.Pop()
	if !b.Empty() || b.Head() != nil {
		t.Error("Head of an empty buffer should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop of an empty buffer should panic")
		}
	}()
	b.Pop()
}

func TestEntriesIsFIFOView(t *testing.T) {
	b := New(4)
	b.Push(5, false, 1)
	b.Push(6, true, 2)
	if b.Len() != 2 || b.At(0).Line != 5 || b.At(1).Line != 6 {
		t.Errorf("At(0), At(1) = %+v, %+v", *b.At(0), *b.At(1))
	}
}

func TestPropertyNeverExceedsCapacityAndFIFO(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		b := New(4)
		var order []uint64
		for i, op := range ops {
			if op%3 == 0 && !b.Empty() {
				head := b.Head()
				if head.Line != order[0] {
					return false // FIFO violated
				}
				b.Pop()
				order = order[1:]
				continue
			}
			if !b.Full() {
				line := uint64(i)
				if _, err := b.Push(line, false, uint64(i)); err != nil {
					return false
				}
				order = append(order, line)
			}
			if b.Len() > b.Capacity() {
				return false
			}
		}
		return b.Len() == len(order)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}
