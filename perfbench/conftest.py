import env

env.use_checkout_source()
