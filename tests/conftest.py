from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; counting can be slow on an unlucky draw, so no deadline.
settings.register_profile("iosc", derandomize=True, deadline=None, database=None)
settings.load_profile("iosc")
