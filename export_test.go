package pushmulticast

// IdentitiesFormatted exposes the formatting-pass counter to the external
// test package (see TestCampaignFormatsEachRunOnce).
func IdentitiesFormatted() uint64 { return identitiesFormatted.Load() }
