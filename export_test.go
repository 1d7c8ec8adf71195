package arcreg

// Test-only hooks for the external test package.

// InjectShardCorruption publishes a corrupt directory on the shard that
// holds key (regmap's chaos hook), so the external tests can drive the
// ErrShardCorrupt episode through the typed watch surfaces.
func InjectShardCorruption[T any](m *MapOf[T], key string) error {
	rm := m.m.m
	return rm.InjectDirectoryCorruption(rm.ShardOf(key))
}
