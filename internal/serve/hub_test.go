package serve

import (
	"testing"
)

func publishN(h *hub, n int) {
	for i := 0; i < n; i++ {
		h.publish(Event{Type: EventProgress, Data: i})
	}
}

func TestHubReplayAndLive(t *testing.T) {
	h := newHub()
	publishN(h, 5)

	replay, sub := h.subscribe(2)
	defer h.unsubscribe(sub)
	if len(replay) != 3 {
		t.Fatalf("replay after seq 2 returned %d events, want 3", len(replay))
	}
	for i, ev := range replay {
		if want := uint64(3 + i); ev.Seq != want {
			t.Errorf("replay[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}

	h.publish(Event{Type: EventState, Data: "running"})
	ev := <-sub.ch
	if ev.Seq != 6 || ev.Type != EventState {
		t.Fatalf("live event = %+v, want seq 6 state", ev)
	}
}

func TestHubHistoryRingBounded(t *testing.T) {
	h := newHub()
	publishN(h, historyCap+50)

	replay, sub := h.subscribe(0)
	h.unsubscribe(sub)
	if len(replay) != historyCap {
		t.Fatalf("history holds %d events, want capped at %d", len(replay), historyCap)
	}
	// The ring keeps the most recent events: first retained seq is 51.
	if first := replay[0].Seq; first != 51 {
		t.Errorf("oldest retained seq = %d, want 51", first)
	}
	if last := replay[len(replay)-1].Seq; last != uint64(historyCap+50) {
		t.Errorf("newest retained seq = %d, want %d", last, historyCap+50)
	}
}

func TestHubSlowSubscriberLags(t *testing.T) {
	h := newHub()
	_, sub := h.subscribe(0)
	defer h.unsubscribe(sub)

	// Overflow the subscriber queue without draining it.
	publishN(h, subBuffer+10)

	// Drain: the buffered events arrive intact...
	for i := 0; i < subBuffer; i++ {
		ev := <-sub.ch
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	// ...and the next publish first reports the gap.
	h.publish(Event{Type: EventProgress, Data: "after"})
	ev := <-sub.ch
	if ev.Type != EventLagged {
		t.Fatalf("post-overflow event type = %s, want %s", ev.Type, EventLagged)
	}
	if dropped := ev.Data.(uint64); dropped != 10 {
		t.Errorf("lagged event reports %d dropped, want 10", dropped)
	}
	// The lagged event's id is the last dropped seq, so a client that
	// reconnects with it as Last-Event-ID misses nothing more.
	if ev.Seq != subBuffer+10 {
		t.Errorf("lagged event seq = %d, want the last dropped seq %d", ev.Seq, subBuffer+10)
	}
	ev = <-sub.ch
	if ev.Type != EventProgress || ev.Data != "after" || ev.Seq != subBuffer+11 {
		t.Fatalf("event after the gap = %+v, want the fresh publish at seq %d", ev, subBuffer+11)
	}
}

func TestHubClose(t *testing.T) {
	h := newHub()
	_, sub := h.subscribe(0)
	publishN(h, 2)
	h.close()
	h.close() // idempotent

	// The buffered events drain, then the channel reports closed.
	for i := 0; i < 2; i++ {
		if _, open := <-sub.ch; !open {
			t.Fatal("channel closed before buffered events drained")
		}
	}
	if _, open := <-sub.ch; open {
		t.Fatal("channel still open after hub close")
	}

	// Post-close publishes are dropped, post-close subscriptions see a
	// closed channel after replay.
	h.publish(Event{Type: EventProgress})
	replay, late := h.subscribe(0)
	if len(replay) != 2 {
		t.Fatalf("post-close replay returned %d events, want 2", len(replay))
	}
	if _, open := <-late.ch; open {
		t.Fatal("post-close subscriber channel not closed")
	}
}
