package pushmulticast

// RunKeysBuilt exposes the memo-key construction counter to the external
// test package (see TestCampaignFormatsEachRunOnce).
func RunKeysBuilt() uint64 { return runKeysBuilt.Load() }
