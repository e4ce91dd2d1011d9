package fleet

// MaxFrameBytes exposes the body bound of the shard RPCs to the tests.
const MaxFrameBytes = maxFrameBytes
