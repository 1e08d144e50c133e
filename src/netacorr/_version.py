__version__ = "0.1.0"

# Layout version of the JSON that CLI documents and experiment reports share.
SCHEMA_VERSION = 1
