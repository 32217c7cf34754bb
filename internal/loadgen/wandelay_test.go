package loadgen

import (
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
)

// TestDelayNetCloseWhileSending closes delay nets while senders are in
// the middle of sending and every delivery re-enters send (a node
// answering the batch it was handed). A send that reaches a link channel
// after close closed it panics; CI runs this under -race.
func TestDelayNetCloseWhileSending(t *testing.T) {
	// Groups 1 and 13 share a WAN region: their link delay is the local
	// half round trip (0.5 ms), so a round takes about a millisecond.
	a, b := amcast.GroupNode(1), amcast.GroupNode(13)
	peer := map[amcast.NodeID]amcast.NodeID{a: b, b: a}
	for round := 0; round < 300; round++ {
		d := newDelayNet([]amcast.GroupID{1, 13})
		var echo func(to amcast.NodeID, envs []amcast.Envelope)
		echo = func(to amcast.NodeID, envs []amcast.Envelope) {
			d.send(to, peer[to], envs, echo)
		}
		var senders sync.WaitGroup
		for i := 0; i < 4; i++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for j := 0; j < 64; j++ {
					d.send(a, b, []amcast.Envelope{{Kind: amcast.KindMsg}}, echo)
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * 50 * time.Microsecond)
		d.close()
		senders.Wait()
	}
}
