package pushmulticast

// RunKeysBuilt exposes the formatting-pass counter to the external test
// package (see TestCampaignFormatsEachRunOnce).
func RunKeysBuilt() uint64 { return runKeysBuilt.Load() }

// ClearRunKeys forgets every remembered formatting pass, so a test can count
// the passes a cold campaign makes whatever ran before it.
func ClearRunKeys() {
	runKeys.Lock()
	runKeys.m = nil
	runKeys.Unlock()
}
